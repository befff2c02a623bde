package sexpr

import (
	"errors"
	"fmt"

	"repro/internal/lock"
	"repro/internal/txn"
	"repro/internal/uid"
	"repro/internal/value"
)

// Session-scoped transaction surface. A network session (one connection
// of cmd/orion-server) is one Interp; (begin) opens an explicit §7
// transaction on it and the write messages — make, set, attach, detach,
// delete, copy, make-versionable, derive, delete-version — route through
// the transaction until (commit) or (abort). With no open transaction
// each write runs as its own one-statement transaction, so it logs
// OpBegin and OpCommit around its records like any other. Schema
// statements always run as their own transaction, and are refused inside
// (begin) (ErrSchemaInTxn).
//
// (begin N) reopens a transaction under a previously issued identity:
// a client retrying after a deadlock abort passes the id its first
// (begin) returned, so the lock manager's youngest-victim policy cannot
// starve a retrier that keeps losing to fresher transactions (the same
// identity-retention contract as txn.Manager.BeginAt). It is a retry, so
// it counts in txn_deadlock_retries_total (txn.Manager.BeginRetry).

// InTxn reports whether the session has an open explicit transaction.
func (in *Interp) InTxn() bool { return in.tx != nil }

// noteDeadlock makes deadlock-victim aborts eager at the session layer.
// When the lock manager picks the session's transaction as a deadlock
// victim, the error surfaces from whatever mutation was in flight — but
// before this hook the transaction object stayed attached to the
// session, so (txn-status) kept reporting it and a follow-up (begin N)
// failed with "transaction already open" even though the transaction was
// dead. Every eval error funnels through here: on a deadlock verdict the
// session aborts the victim immediately (rolling back its effects and
// releasing its §7 locks) and detaches it, so the client's very next
// (begin N) retry succeeds. The abort's own error is absorbed — the
// deadlock verdict is the one the client must see, and the wire code
// (CodeDeadlock) plus the retained identity are its retry contract.
func (in *Interp) noteDeadlock(err error) error {
	if err != nil && in.tx != nil && errors.Is(err, lock.ErrDeadlock) {
		_ = in.tx.Abort()
		in.tx = nil
	}
	return err
}

// TxnID returns the open transaction's identity, or 0 when none is open.
func (in *Interp) TxnID() lock.TxID {
	if in.tx == nil {
		return 0
	}
	return in.tx.ID()
}

// Close releases everything the session pins: an open transaction is
// aborted (rolling back its effects and releasing its §7 locks) and an
// active snapshot is released. Safe to call more than once. The server
// calls this on every connection teardown, clean or abrupt.
func (in *Interp) Close() error {
	var err error
	if in.tx != nil {
		err = in.tx.Abort()
		in.tx = nil
	}
	if in.snap != nil {
		in.snap.Release()
		in.snap = nil
	}
	return err
}

func evalBegin(in *Interp, args []Node) (value.Value, error) {
	if in.tx != nil {
		return value.Nil, fmt.Errorf("transaction %d already open (commit or abort it first): %w", in.tx.ID(), ErrEval)
	}
	switch len(args) {
	case 0:
		in.tx = in.DB.Txns().Begin()
	case 1:
		if args[0].Kind != NInt || args[0].Int() <= 0 {
			return value.Nil, fmt.Errorf("usage: (begin [txn-id]): %w", ErrEval)
		}
		in.tx = in.DB.Txns().BeginRetry(lock.TxID(args[0].Int()))
	default:
		return value.Nil, fmt.Errorf("usage: (begin [txn-id]): %w", ErrEval)
	}
	return value.Int(int64(in.tx.ID())), nil
}

func evalCommit(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 0 {
		return value.Nil, fmt.Errorf("usage: (commit): %w", ErrEval)
	}
	if in.tx == nil {
		return value.Nil, fmt.Errorf("no open transaction: %w", ErrEval)
	}
	err := in.tx.Commit()
	in.tx = nil
	if err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalAbort(in *Interp, args []Node) (value.Value, error) {
	if len(args) != 0 {
		return value.Nil, fmt.Errorf("usage: (abort): %w", ErrEval)
	}
	if in.tx == nil {
		return value.Nil, fmt.Errorf("no open transaction: %w", ErrEval)
	}
	err := in.tx.Abort()
	in.tx = nil
	if err != nil {
		return value.Nil, err
	}
	return value.Bool(true), nil
}

func evalTxnStatus(in *Interp, args []Node) (value.Value, error) {
	if in.tx == nil {
		return value.Nil, nil
	}
	return value.Int(int64(in.tx.ID())), nil
}

// evalRefs implements (refs obj ...): a set value over object references.
// The reader has no set literal — sets render as {…} but only for output
// — so this is how a wire client writes a set-valued composite attribute:
// (set p Parts (refs a b)).
func evalRefs(in *Interp, args []Node) (value.Value, error) {
	ids := make([]uid.UID, 0, len(args))
	for _, n := range args {
		id, err := in.objArg(n)
		if err != nil {
			return value.Nil, err
		}
		ids = append(ids, id)
	}
	return value.RefSet(ids...), nil
}

// Wire error codes produced by ErrorCode. The server sends them as the
// first token of an error reply so clients can dispatch on failure class
// without parsing prose; codes, not Go error chains, are the wire
// contract (errors.Is does not survive serialization).
const (
	CodeParse    = "parse"    // the program did not parse
	CodeEval     = "eval"     // evaluation failed (unknown message, bad args, engine rejection)
	CodeDeadlock = "deadlock" // the transaction was a deadlock victim; retry with (begin N)
	CodeTxnDone  = "txn-done" // the transaction already committed or aborted
	CodeError    = "error"    // anything else
)

// ErrorCode classifies an evaluation error for the wire.
func ErrorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, lock.ErrDeadlock):
		return CodeDeadlock
	case errors.Is(err, txn.ErrDone):
		return CodeTxnDone
	case errors.Is(err, ErrParse):
		return CodeParse
	case errors.Is(err, ErrEval):
		return CodeEval
	default:
		return CodeError
	}
}
