package sexpr

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/lock"
	"repro/internal/txn"
	"repro/internal/value"
)

// sessionSchema: a composite hierarchy small enough to drive the
// transaction builtins end to end.
const sessionSchema = `
(make-class 'Part :attributes '((Tag :domain integer)))
(make-class 'Widget :attributes '((Tag :domain integer)
                                  (Parts :domain (set-of Part) :composite true)
                                  (Main :domain Part :composite true)))
`

func TestBeginCommitVisible(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, sessionSchema)
	id := mustEval(t, in, "(begin)")
	if _, ok := id.AsInt(); !ok {
		t.Fatalf("(begin) should return the txn id, got %s", id)
	}
	if !in.InTxn() {
		t.Fatal("InTxn should be true after (begin)")
	}
	mustEval(t, in, `(define w (make Widget :Tag 1)) (set w Tag 7)`)
	mustEval(t, in, "(commit)")
	if in.InTxn() {
		t.Fatal("InTxn should be false after (commit)")
	}
	got := mustEval(t, in, "(get w Tag)")
	if n, _ := got.AsInt(); n != 7 {
		t.Fatalf("Tag = %s, want 7", got)
	}
}

func TestAbortRollsBack(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, sessionSchema)
	mustEval(t, in, `(define w (make Widget :Tag 1))`)
	mustEval(t, in, "(begin) (set w Tag 99)")
	mustEval(t, in, "(abort)")
	got := mustEval(t, in, "(get w Tag)")
	if n, _ := got.AsInt(); n != 1 {
		t.Fatalf("Tag after abort = %s, want the pre-txn 1", got)
	}
}

func TestBeginAtRetainsIdentity(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, sessionSchema)
	id := in.DB.Txns().Reserve()
	v := mustEval(t, in, "(begin "+value.Int(int64(id)).String()+")")
	if n, _ := v.AsInt(); lock.TxID(n) != id {
		t.Fatalf("(begin %d) returned id %d", id, n)
	}
	if in.TxnID() != id {
		t.Fatalf("TxnID = %d, want %d", in.TxnID(), id)
	}
	mustEval(t, in, "(abort)")
}

func TestNestedBeginRejected(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, sessionSchema)
	mustEval(t, in, "(begin)")
	if _, err := in.EvalString("(begin)"); err == nil || !errors.Is(err, ErrEval) {
		t.Fatalf("nested (begin) should fail with ErrEval, got %v", err)
	}
	mustEval(t, in, "(abort)")
}

func TestCommitWithoutBegin(t *testing.T) {
	in := newInterp(t)
	for _, src := range []string{"(commit)", "(abort)"} {
		if _, err := in.EvalString(src); err == nil {
			t.Fatalf("%s without (begin) should fail", src)
		}
	}
	if v := mustEval(t, in, "(txn-status)"); !v.IsNil() {
		t.Fatalf("(txn-status) with no txn = %s, want nil", v)
	}
}

func TestRefsBuildsSet(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, sessionSchema)
	mustEval(t, in, `
		(define w (make Widget :Tag 1))
		(define a (make Part :Tag 2))
		(define b (make Part :Tag 3))
		(set w Parts (refs a b))`)
	got := mustEval(t, in, "(components-of w)")
	if !strings.Contains(got.String(), "#") {
		t.Fatalf("components after (refs) set = %s, want two refs", got)
	}
	refs := got.Refs(nil)
	if len(refs) != 2 {
		t.Fatalf("got %d components, want 2", len(refs))
	}
}

func TestCloseAbortsOpenTxnAndReleasesLocks(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, sessionSchema)
	mustEval(t, in, "(begin) (define w (make Widget :Tag 1))")
	id := in.TxnID()
	if n := in.DB.Txns().Locks().LockCount(id); n == 0 {
		t.Fatal("open txn should hold locks after make")
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if in.InTxn() {
		t.Fatal("InTxn after Close")
	}
	if n := in.DB.Txns().Locks().LockCount(id); n != 0 {
		t.Fatalf("Close left %d locks held", n)
	}
	// Idempotent.
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnDeadlockSurfacesCode(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, sessionSchema)
	mustEval(t, in, `(define w (make Widget :Tag 1)) (define p (make Part :Tag 2))`)
	// Session txn holds w; a second txn holds p; the session then wants p
	// while the second wants w — a real two-party deadlock. One side is
	// chosen as victim; if it is the session's txn the error must carry
	// the deadlock code.
	p := mustEval(t, in, "p").String()
	mustEval(t, in, "(begin) (set w Tag 10)")
	t2 := in.DB.Txns().Begin()
	pid, _ := mustEval(t, in, "p").AsRef()
	wid, _ := mustEval(t, in, "w").AsRef()
	if err := t2.WriteAttr(pid, "Tag", value.Int(20)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		err := t2.WriteAttr(wid, "Tag", value.Int(21))
		if err == nil {
			err = t2.Commit()
		} else {
			t2.Abort()
		}
		done <- err
	}()
	_, errSess := in.EvalString("(set " + p + " Tag 11)")
	errOther := <-done
	switch {
	case errSess != nil:
		if ErrorCode(errSess) != CodeDeadlock {
			t.Fatalf("session error code = %q (%v), want deadlock", ErrorCode(errSess), errSess)
		}
		in.Close()
	case errOther != nil:
		if !errors.Is(errOther, lock.ErrDeadlock) {
			t.Fatalf("other txn error = %v, want deadlock", errOther)
		}
		mustEval(t, in, "(commit)")
	default:
		t.Fatal("deadlock resolved with neither side aborted")
	}
}

func TestErrorCodeMapping(t *testing.T) {
	in := newInterp(t)
	cases := []struct {
		src  string
		code string
	}{
		{"(make", CodeParse},
		{"(no-such-message)", CodeEval},
	}
	for _, c := range cases {
		_, err := in.EvalString(c.src)
		if err == nil || ErrorCode(err) != c.code {
			t.Fatalf("ErrorCode(%q) = %q (%v), want %q", c.src, ErrorCode(err), err, c.code)
		}
	}
	if ErrorCode(nil) != "" {
		t.Fatal("ErrorCode(nil) should be empty")
	}
	if ErrorCode(txn.ErrDone) != CodeTxnDone {
		t.Fatal("ErrDone should map to txn-done")
	}
	if ErrorCode(errors.New("x")) != CodeError {
		t.Fatal("unknown errors should map to the generic code")
	}
}

// TestSetDefaultRefusedInTxn: the default pin is shared bookkeeping that
// an abort would not undo, so inside (begin) set-default is an eval error
// and the pin stays as it was after the abort.
func TestSetDefaultRefusedInTxn(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, `(make-class 'Design :versionable true :attributes '((Name :domain string)))`)
	gv := mustEval(t, in, `(make-versionable Design :Name "d0")`).Elems()
	in.env["g"], in.env["v0"] = gv[0], gv[1]
	mustEval(t, in, `(define v1 (derive v0)) (set-default g v0)`)
	mustEval(t, in, "(begin)")
	_, err := in.EvalString("(set-default g v1)")
	if !errors.Is(err, ErrSetDefaultInTxn) || ErrorCode(err) != CodeEval {
		t.Fatalf("set-default in (begin) = %v (code %q), want ErrSetDefaultInTxn", err, ErrorCode(err))
	}
	mustEval(t, in, "(abort)")
	if d := mustEval(t, in, "(default-version g)"); !d.Equal(in.env["v0"]) {
		t.Fatalf("default after refused set-default = %v, want v0", d)
	}
}

// TestAbortedVersionStatementsKeepBookkeeping: the version bookkeeping
// follows the transaction's outcome, like the objects. An aborted
// delete-version leaves the version listed, derivable and pinned; an
// aborted deletion of the last version leaves the generic; an aborted
// derive leaves no version behind.
func TestAbortedVersionStatementsKeepBookkeeping(t *testing.T) {
	in := newInterp(t)
	mustEval(t, in, `(make-class 'Design :versionable true :attributes '((Name :domain string)))`)
	gv := mustEval(t, in, `(make-versionable Design :Name "d0")`).Elems()
	in.env["g"], in.env["v0"] = gv[0], gv[1]
	mustEval(t, in, `(define v1 (derive v0)) (set-default g v1)`)
	mustEval(t, in, "(begin) (delete-version v1) (abort)")
	if n := mustEval(t, in, "(versions-of g)").Len(); n != 2 {
		t.Fatalf("versions-of after aborted delete-version: %d versions, want 2", n)
	}
	if d := mustEval(t, in, "(default-version g)"); !d.Equal(in.env["v1"]) {
		t.Fatalf("default after aborted delete-version = %v, want v1", d)
	}
	mustEval(t, in, "(derive v1)")

	hv := mustEval(t, in, `(make-versionable Design :Name "h0")`).Elems()
	in.env["h"], in.env["w0"] = hv[0], hv[1]
	mustEval(t, in, "(begin) (delete-version w0) (abort)")
	if r := mustEval(t, in, "(resolve h)"); !r.Equal(in.env["w0"]) {
		t.Fatalf("(resolve h) after aborted last-version delete = %v, want w0", r)
	}

	mustEval(t, in, "(begin) (derive w0) (abort)")
	if n := mustEval(t, in, "(versions-of h)").Len(); n != 1 {
		t.Fatalf("versions-of after aborted derive: %d versions, want 1", n)
	}
}
