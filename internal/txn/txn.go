// Package txn provides transactions over the composite-object engine:
// strict two-phase locking through the §7 lock protocols, plus logical
// undo so an aborted transaction leaves no trace.
//
// The granularity follows the paper: reads and writes of single objects
// take IS/S and IX/X locks; operations on composite objects (cascading
// deletes, whole-object reads) take the composite protocol locks
// (IS+S+ISO/ISOS for reads, IX+X+IXO/IXOS for updates). These protocols
// target "conventional short transactions" — the paper notes that
// long-duration design transactions want per-component locking, which
// ReadObject/WriteAttr provide.
package txn

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/uid"
	"repro/internal/value"
)

// ErrDone is returned when a finished transaction is used again.
var ErrDone = errors.New("txn: transaction already committed or aborted")

// Boundary receives transaction outcomes before locks are released. The
// db facade implements it to write the WAL commit/abort records that
// delimit each transaction's group: OnCommit is the durability point
// (under strict 2PL it must complete before any lock is released, or a
// reader could observe state that a crash then rolls back), OnAbort
// seals the group so replay discards it.
type Boundary interface {
	OnCommit(tx core.TxnID) error
	OnAbort(tx core.TxnID) error
}

// Manager creates transactions bound to one engine and lock manager.
type Manager struct {
	engine   *core.Engine
	locks    *lock.Manager
	proto    *lock.Protocol
	next     atomic.Uint64
	boundary Boundary
	o        managerObs

	// profAttach/profDetach are ambient cost-sink hooks: when a
	// transaction turns on profiling (Txn.Profile) the manager calls
	// profAttach so layers the Txn never sees directly — buffer pool,
	// WAL — attribute their activity to the same ProfCtx, and
	// profDetach at commit/abort. The db facade wires them.
	profAttach func(*obs.ProfCtx)
	profDetach func(*obs.ProfCtx)
}

// SetProfHooks installs the ambient profile attach/detach callbacks
// (see Txn.Profile). Call before any transaction begins.
func (m *Manager) SetProfHooks(attach, detach func(*obs.ProfCtx)) {
	m.profAttach, m.profDetach = attach, detach
}

// SetBoundary installs the commit/abort observer. Call before any
// transaction begins.
func (m *Manager) SetBoundary(b Boundary) { m.boundary = b }

// managerObs holds the manager's pre-resolved instruments (see
// internal/obs): transaction lifecycle counters plus the tracer for
// begin/commit/abort points.
type managerObs struct {
	tr              *obs.Tracer
	flight          *obs.FlightRecorder
	begins          *obs.Counter
	commits         *obs.Counter
	aborts          *obs.Counter
	deadlockRetries *obs.Counter
	snapshots       *obs.Counter
}

// NewManager returns a transaction manager over the engine, sharing the
// engine's observability registry with its lock manager.
func NewManager(e *core.Engine) *Manager {
	lm := lock.NewManager()
	m := &Manager{
		engine: e,
		locks:  lm,
		proto:  lock.NewProtocol(lm, e),
	}
	m.SetObservability(e.Observability())
	return m
}

// SetObservability rebinds the manager's instruments — and those of its
// lock manager — to r (nil disables them). Call before concurrent use.
func (m *Manager) SetObservability(r *obs.Registry) {
	m.o = managerObs{
		tr:              r.Tracer(),
		flight:          r.Flight(),
		begins:          r.Counter("txn_begin_total"),
		commits:         r.Counter("txn_commit_total"),
		aborts:          r.Counter("txn_abort_total"),
		deadlockRetries: r.Counter("txn_deadlock_retries_total"),
		snapshots:       r.Counter("txn_snapshot_begin_total"),
	}
	m.locks.SetObservability(r)
}

// Observability returns the engine's registry (shared with the lock
// manager).
func (m *Manager) Observability() *obs.Registry { return m.engine.Observability() }

// Locks exposes the underlying lock manager (for tests and figures).
func (m *Manager) Locks() *lock.Manager { return m.locks }

// Protocol exposes the composite lock protocol.
func (m *Manager) Protocol() *lock.Protocol { return m.proto }

// Engine exposes the underlying engine.
func (m *Manager) Engine() *core.Engine { return m.engine }

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	return m.BeginAt(lock.TxID(m.next.Add(1)))
}

// BeginAt starts a transaction with a previously allocated identity. A
// deadlock victim retries with the SAME identity it started with: the
// wait-for victim choice kills the youngest (largest) TxID, so a retry
// under a fresh identity is always the youngest again and can be
// victimized forever under contention. Retaining the original identity
// makes the retrier older than every transaction begun since, so it
// eventually wins its locks (wait-die style starvation avoidance). The
// identity must come from Begin or Reserve and must hold no locks.
func (m *Manager) BeginAt(id lock.TxID) *Txn {
	m.o.begins.Inc()
	if tr := m.o.tr; tr.Active() {
		tr.Point(0, "txn.begin", obs.F("tx", id))
	}
	return &Txn{
		m:  m,
		id: id,
	}
}

// BeginSnapshot starts a read-only snapshot transaction: its snapshot
// sequence — the MVCC analogue of a TxID — is assigned at begin, and
// every query on the returned handle reads the committed state at
// exactly that boundary. Snapshot reads take no §7 locks and never
// appear in the wait-for graph, so they cannot deadlock, cannot be
// victimized, and never block a writer; the handle must be Released
// (not committed or aborted) when done.
func (m *Manager) BeginSnapshot() *core.Snapshot {
	m.o.snapshots.Inc()
	s := m.engine.BeginSnapshot()
	if tr := m.o.tr; tr.Active() {
		tr.Point(0, "txn.snapshot", obs.F("seq", s.Seq()))
	}
	return s
}

// Reserve allocates a transaction identity from the same ID space Begin
// uses, without creating a Txn. The db facade's auto-commit operations
// use it to run composite-unit lock admission against the shared lock
// manager; the caller must ReleaseAll the identity when done.
func (m *Manager) Reserve() lock.TxID {
	return lock.TxID(m.next.Add(1))
}

// SeedNext advances the transaction-ID counter so the next Begin/Reserve
// hands out an ID strictly greater than n. Recovery calls this with the
// highest transaction ID in the WAL, so a new transaction never reuses the
// ID of a record still in the log. A no-op when the counter is already
// past n.
func (m *Manager) SeedNext(n uint64) {
	for {
		cur := m.next.Load()
		if cur >= n || m.next.CompareAndSwap(cur, n) {
			return
		}
	}
}

// undoRec is one logical undo action.
type undoRec struct {
	restore *object.Object // non-nil: put this before-image back
	evict   uid.UID        // non-nil UID: remove this created object
}

// Txn is a transaction. It is not safe for concurrent use by multiple
// goroutines (one goroutine per transaction, many transactions in
// parallel).
type Txn struct {
	m       *Manager
	id      lock.TxID
	undo    []undoRec
	snapped map[uid.UID]bool
	prof    *obs.ProfCtx
	done    bool
}

// Profile turns on cost attribution for the rest of the transaction
// and returns the collector. From this point every traversal the
// transaction runs, every lock it waits for, and — via the manager's
// ambient hooks — every page and WAL frame its writes touch is charged
// to the returned ProfCtx; read it after Commit/Abort (obs.ProfCtx
// methods are safe on a finished context). Idempotent: repeated calls
// return the same collector.
func (t *Txn) Profile() *obs.ProfCtx {
	if t.prof == nil && !t.done {
		t.prof = obs.NewProfCtx(fmt.Sprintf("txn %d", t.id))
		t.m.locks.RegisterProf(t.id, t.prof)
		if t.m.profAttach != nil {
			t.m.profAttach(t.prof)
		}
	}
	return t.prof
}

// finishProf seals the transaction's profile at commit/abort: stops
// the wall clock, detaches the ambient sinks, and drops the flight
// record for the transaction as a whole. The lock-manager registration
// is cleaned up by ReleaseAll.
func (t *Txn) finishProf(op, outcome string) {
	if t.prof == nil {
		return
	}
	t.prof.Finish()
	if t.m.profDetach != nil {
		t.m.profDetach(t.prof)
	}
	if f := t.m.o.flight; f != nil {
		f.Record(op, fmt.Sprintf("tx=%d", t.id), t.prof.Wall(), outcome, t.prof.TopCosts())
	}
}

// ID returns the transaction's lock-manager identity.
func (t *Txn) ID() lock.TxID { return t.id }

// txid returns the identity the engine's persistence hook tags WAL
// records with.
func (t *Txn) txid() core.TxnID { return core.TxnID(t.id) }

func (t *Txn) check() error {
	if t.done {
		return ErrDone
	}
	return nil
}

// snapshot records a before-image of id once per transaction.
func (t *Txn) snapshot(id uid.UID) error {
	if t.snapped == nil {
		t.snapped = make(map[uid.UID]bool)
	}
	if t.snapped[id] {
		return nil
	}
	snap, err := t.m.engine.Snapshot(id)
	if err != nil {
		return err
	}
	t.snapped[id] = true
	t.undo = append(t.undo, undoRec{restore: snap})
	return nil
}

// ReadObject locks the composite units containing id for reading (S on
// each unit root) and returns a private copy. Admitting the read at the
// unit root — not with a bare IS/S instance lock — is what serializes it
// against unit writers, which hold X on the root but no instance locks on
// the components underneath it.
func (t *Txn) ReadObject(id uid.UID) (*object.Object, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	if err := t.m.proto.LockUnitsRead(t.id, id); err != nil {
		return nil, err
	}
	return t.m.engine.Snapshot(id)
}

// WriteAttr locks the composite units containing id and every object the
// new value references (dropped references are components of id's units
// already) and sets the attribute, recording undo.
func (t *Txn) WriteAttr(id uid.UID, attr string, v value.Value) error {
	if err := t.check(); err != nil {
		return err
	}
	units := append([]uid.UID{id}, v.Refs(nil)...)
	if err := t.m.proto.LockUnitsWrite(t.id, units...); err != nil {
		return err
	}
	// Composite attribute writes touch referenced children too; snapshot
	// every object the diff will touch.
	if err := t.snapshot(id); err != nil {
		return err
	}
	o, err := t.m.engine.Get(id)
	if err != nil {
		return err
	}
	touched := uid.NewSet(o.Get(attr).Refs(nil)...)
	for _, r := range v.Refs(nil) {
		touched.Add(r)
	}
	for _, r := range touched.Slice() {
		if t.m.engine.Exists(r) {
			if err := t.snapshot(r); err != nil {
				return err
			}
		}
	}
	return t.m.engine.SetTx(t.txid(), id, attr, v)
}

// New creates an instance within the transaction: IX on the class, write
// admission to the composite units of every named parent and every object
// the initial attribute values reference, then X on the created instance.
func (t *Txn) New(class string, attrs map[string]value.Value, parents ...core.ParentSpec) (*object.Object, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	if err := t.m.locks.Lock(t.id, lock.ClassGranule(class), lock.IX); err != nil {
		return nil, err
	}
	var units []uid.UID
	for _, p := range parents {
		units = append(units, p.Parent)
	}
	for _, v := range attrs {
		units = append(units, v.Refs(nil)...)
	}
	if err := t.m.proto.LockUnitsWrite(t.id, units...); err != nil {
		return nil, err
	}
	for _, p := range parents {
		if err := t.snapshot(p.Parent); err != nil {
			return nil, err
		}
	}
	// Attribute values that reference existing objects mutate them too.
	for _, v := range attrs {
		for _, r := range v.Refs(nil) {
			if t.m.engine.Exists(r) {
				if err := t.snapshot(r); err != nil {
					return nil, err
				}
			}
		}
	}
	o, err := t.m.engine.NewTx(t.txid(), class, attrs, parents...)
	if err != nil {
		return nil, err
	}
	t.undo = append(t.undo, undoRec{evict: o.UID()})
	// Lock the created instance exclusively until commit.
	if err := t.m.locks.Lock(t.id, lock.InstanceGranule(o.UID()), lock.X); err != nil {
		return nil, err
	}
	return o, nil
}

// Attach makes child a component of parent within the transaction, with
// write admission to both objects' composite units — the attach may merge
// two hierarchies, which LockUnitsWrite's re-resolution loop handles.
func (t *Txn) Attach(parent uid.UID, attr string, child uid.UID) error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.m.proto.LockUnitsWrite(t.id, parent, child); err != nil {
		return err
	}
	for _, id := range []uid.UID{parent, child} {
		if err := t.snapshot(id); err != nil {
			return err
		}
	}
	return t.m.engine.AttachTx(t.txid(), parent, attr, child)
}

// Detach removes the parent-child reference within the transaction. The
// child may no longer exist — a weak (non-composite) reference dangles
// after its target is deleted, and detaching is exactly how such a
// reference is cleaned up — so a missing child snapshot is tolerated:
// with no child object there is no child state to undo, and the engine's
// Detach likewise skips reverse-reference maintenance for it.
func (t *Txn) Detach(parent uid.UID, attr string, child uid.UID) error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.m.proto.LockUnitsWrite(t.id, parent, child); err != nil {
		return err
	}
	for _, id := range []uid.UID{parent, child} {
		if err := t.snapshot(id); err != nil {
			if id == child && errors.Is(err, core.ErrNoObject) {
				continue
			}
			return err
		}
	}
	return t.m.engine.DetachTx(t.txid(), parent, attr, child)
}

// ReadComposite locks the composite object rooted at root with the §7 read
// protocol and returns root plus all components.
func (t *Txn) ReadComposite(root uid.UID) ([]uid.UID, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	if err := t.m.proto.LockCompositeRead(t.id, root); err != nil {
		return nil, err
	}
	comps, err := t.m.engine.ComponentsOf(root, core.QueryOpts{Prof: t.prof})
	if err != nil {
		return nil, err
	}
	return append([]uid.UID{root}, comps...), nil
}

// Delete removes the object (cascading per the Deletion Rule) under the
// §7 write protocol applied to every composite object containing it.
func (t *Txn) Delete(id uid.UID) ([]uid.UID, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	if err := t.m.proto.LockForDelete(t.id, id); err != nil {
		return nil, err
	}
	// Snapshot everything deletion may touch: the object, its component
	// closure, and the parents of each (forward references are edited).
	affected := uid.NewSet(id)
	comps, err := t.m.engine.ComponentsOf(id, core.QueryOpts{Prof: t.prof})
	if err != nil {
		return nil, err
	}
	for _, c := range comps {
		affected.Add(c)
	}
	for _, a := range append([]uid.UID{}, affected.Slice()...) {
		o, err := t.m.engine.Get(a)
		if err != nil {
			continue
		}
		for _, r := range o.Reverse() {
			affected.Add(r.Parent)
		}
	}
	for _, a := range affected.Slice() {
		if err := t.snapshot(a); err != nil {
			return nil, err
		}
	}
	return t.m.engine.DeleteTx(t.txid(), id)
}

// Commit ends the transaction: the boundary makes its WAL group durable
// (OnCommit — the commit record, fsynced under SyncWAL via group
// commit), then every lock is released and the undo log discarded. The
// ordering is load-bearing: releasing locks before the commit record is
// durable would let a reader observe state a crash then rolls back. On a
// boundary error the locks are still released and the error returned —
// the transaction's effects remain in memory but are not durable, and
// replay discards its unsealed WAL group.
func (t *Txn) Commit() error {
	if err := t.check(); err != nil {
		return err
	}
	t.done = true
	t.undo = nil
	var err error
	if t.m.boundary != nil {
		err = t.m.boundary.OnCommit(t.txid())
	}
	if tr := t.m.o.tr; tr.Active() {
		tr.Point(0, "txn.commit", obs.F("tx", t.id))
	}
	// Publish the write set as one MVCC commit boundary before any lock
	// is released: the X locks keep the set quiescent while it is cloned,
	// and a snapshot begun from here on sees all of it or none. Installed
	// even on a boundary error — the in-memory effects persist either way.
	t.m.engine.CommitVersions(t.txid())
	outcome := "ok"
	if err != nil {
		outcome = "err"
	}
	t.finishProf("txn.commit", outcome)
	t.m.locks.ReleaseAll(t.id)
	if err != nil {
		return err
	}
	t.m.o.commits.Inc()
	return nil
}

// Abort rolls back every change in reverse order and releases all locks.
// Undo actions write through the engine's persistence hook tagged with
// this transaction, so both the forward writes and these compensating
// writes land in the same WAL group — which OnAbort then seals with an
// abort record, making replay discard the whole group. A persistence
// failure surfaces here; every undo record is still processed and every
// lock released before the first such error is returned.
func (t *Txn) Abort() error {
	if err := t.check(); err != nil {
		return err
	}
	t.done = true
	t.m.o.aborts.Inc()
	if tr := t.m.o.tr; tr.Active() {
		tr.Point(0, "txn.abort", obs.F("tx", t.id), obs.F("undo", len(t.undo)))
	}
	var firstErr error
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		var err error
		switch {
		case u.restore != nil:
			err = t.m.engine.RestoreTx(t.txid(), u.restore)
		case !u.evict.IsNil():
			err = t.m.engine.EvictTx(t.txid(), u.evict)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.undo = nil
	// Drop the transaction's accumulated version write set (forward
	// writes and the compensations above alike): the chains stay at the
	// pre-transaction boundary, which the rolled-back live state equals.
	t.m.engine.AbortVersions(t.txid())
	if t.m.boundary != nil {
		if err := t.m.boundary.OnAbort(t.txid()); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.finishProf("txn.abort", "abort")
	t.m.locks.ReleaseAll(t.id)
	return firstErr
}

// Run executes fn in a transaction, committing on nil and aborting on
// error or panic. Deadlock victims are retried up to three times,
// keeping their original identity (see BeginAt) so a retry is not
// re-victimized as the perpetual youngest.
func (m *Manager) Run(fn func(*Txn) error) error {
	var lastErr error
	id := lock.TxID(m.next.Add(1))
	for attempt := 0; attempt < 3; attempt++ {
		t := m.BeginAt(id)
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Abort()
					panic(r)
				}
			}()
			return fn(t)
		}()
		if err == nil {
			return t.Commit()
		}
		t.Abort()
		if !errors.Is(err, lock.ErrDeadlock) {
			return err
		}
		m.o.deadlockRetries.Inc()
		lastErr = err
		// Back off before retrying: an immediate retry can re-acquire its
		// locks and re-form the same cycle before the parked survivor has
		// even been scheduled, burning every attempt against one victim.
		time.Sleep(time.Duration(1<<attempt) * time.Millisecond)
	}
	return fmt.Errorf("txn: giving up after deadlock retries: %w", lastErr)
}
