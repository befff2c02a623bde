// Package txn provides transactions over the composite-object engine:
// strict two-phase locking through the §7 lock protocols. A transaction
// writes private copies in its engine overlay and reads through it
// (Txn.View); Commit publishes the overlay as the committed objects and
// Abort drops it, so an abort leaves no trace and no undo log is kept.
// Strict 2PL keeps the write sets of concurrent transactions disjoint.
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
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

// ErrDone is returned when a finished transaction is used again.
var ErrDone = errors.New("txn: transaction already committed or aborted")

// Boundary receives transaction outcomes before locks are released. The
// db facade implements it around each transaction's group of log
// records: OnCommit logs the group and is the durability point (under
// strict 2PL it must complete before any lock is released, or a reader
// could observe state that a crash then rolls back), OnAbort drops it.
// OnCommit must call publish exactly once, error or not, after the group
// is logged: it publishes the transaction's overlay, and a boundary that
// orders publications against something else (a checkpoint) calls it
// inside that order.
type Boundary interface {
	OnCommit(tx core.TxnID, publish func()) error
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
	// profAttach so layers the Txn never sees directly — the WAL —
	// attribute their activity to the same ProfCtx, and
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

// BeginRetry restarts a deadlock victim under its original identity (see
// BeginAt) and counts the retry in txn_deadlock_retries_total. Run's
// retries and the wire session's (begin N) both come through here.
func (m *Manager) BeginRetry(id lock.TxID) *Txn {
	m.o.deadlockRetries.Inc()
	return m.BeginAt(id)
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
// uses, without creating a Txn: a caller that retries deadlock victims
// itself begins each attempt with BeginAt (or BeginRetry) on it.
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

// Txn is a transaction. It is not safe for concurrent use by multiple
// goroutines (one goroutine per transaction, many transactions in
// parallel).
type Txn struct {
	m    *Manager
	id   lock.TxID
	prof *obs.ProfCtx
	done bool
}

// Profile turns on cost attribution for the rest of the transaction
// and returns the collector. From this point every traversal the
// transaction runs, every lock it waits for, and — via the manager's
// ambient hooks — every WAL frame its writes append is charged
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

// TxnID returns the identity the engine's persistence hook tags WAL
// records with.
func (t *Txn) TxnID() core.TxnID { return core.TxnID(t.id) }

func (t *Txn) check() error {
	if t.done {
		return ErrDone
	}
	return nil
}

// View returns the transaction's view: the §3 queries and Get over the
// objects it wrote, as it wrote them, and the committed objects beyond.
// Its reads take no §7 lock.
func (t *Txn) View() core.View { return t.m.engine.TxView(t.TxnID()) }

// ReadObject locks the composite units containing id for reading (S on
// each unit root) and returns the object as the transaction's view sees
// it, read-only. Admitting the read at the unit root — not with a bare
// IS/S instance lock — is what serializes it against unit writers, which
// hold X on the root but no instance locks on the components underneath
// it.
func (t *Txn) ReadObject(id uid.UID) (*object.Object, error) {
	if err := t.LockUnits(false, id); err != nil {
		return nil, err
	}
	return t.View().Get(id)
}

// LockUnits admits the transaction to the composite units containing
// ids, for writing or for reading (lock.Protocol.LockUnitsWrite and
// LockUnitsRead). The version layer (§5) also calls it alone, to
// serialize its bookkeeping of a generic instance.
func (t *Txn) LockUnits(write bool, ids ...uid.UID) error {
	if err := t.check(); err != nil {
		return err
	}
	if write {
		return t.m.proto.LockUnitsWrite(t.id, ids...)
	}
	return t.m.proto.LockUnitsRead(t.id, ids...)
}

// WriteAttr locks the composite units containing id and every object the
// new value references (dropped references are components of id's units
// already) and sets the attribute.
func (t *Txn) WriteAttr(id uid.UID, attr string, v value.Value) error {
	if err := t.LockUnits(true, append([]uid.UID{id}, v.Refs(nil)...)...); err != nil {
		return err
	}
	return t.m.engine.SetTx(t.TxnID(), id, attr, v)
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
	o, err := t.m.engine.NewTx(t.TxnID(), class, attrs, parents...)
	if err != nil {
		return nil, err
	}
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
	if err := t.LockUnits(true, parent, child); err != nil {
		return err
	}
	return t.m.engine.AttachTx(t.TxnID(), parent, attr, child)
}

// Detach removes the parent-child reference within the transaction. The
// child may no longer exist — a weak (non-composite) reference dangles
// after its target is deleted, and detaching is exactly how such a
// reference is cleaned up — in which case the engine skips
// reverse-reference maintenance for it.
func (t *Txn) Detach(parent uid.UID, attr string, child uid.UID) error {
	if err := t.LockUnits(true, parent, child); err != nil {
		return err
	}
	return t.m.engine.DetachTx(t.TxnID(), parent, attr, child)
}

// AttachWithCheck is Attach with a caller-supplied Make-Component
// validation (core.Engine.AttachWithCheck); the version layer passes its
// rule CV-2X.
func (t *Txn) AttachWithCheck(parent uid.UID, attr string, child uid.UID,
	check func(child *object.Object, spec schema.AttrSpec) error) error {
	if err := t.LockUnits(true, parent, child); err != nil {
		return err
	}
	return t.m.engine.AttachWithCheckTx(t.TxnID(), parent, attr, child, check)
}

// Mutate runs fn on the object within the transaction, with write
// admission to its composite units: the version layer's bookkeeping in
// engine objects (§5.3) is written, logged and rolled back like any
// attribute write.
func (t *Txn) Mutate(id uid.UID, fn func(o *object.Object)) error {
	if err := t.LockUnits(true, id); err != nil {
		return err
	}
	return t.m.engine.MutateTx(t.TxnID(), id, fn)
}

// Copy copies the composite object rooted at root (core.Engine.
// CopyComposite) within the transaction. Delete admission to root covers
// its unit, its components and their other parents, whose shared
// components gain the copy as a parent; IX on the class of every object
// it may copy admits the creations, and each copy is locked X like an
// instance New creates. It returns the new root.
func (t *Txn) Copy(root uid.UID) (uid.UID, error) {
	if err := t.check(); err != nil {
		return uid.Nil, err
	}
	if err := t.m.proto.LockForDelete(t.id, root); err != nil {
		return uid.Nil, err
	}
	comps, err := t.View().ComponentsOf(root, core.QueryOpts{})
	if err != nil {
		return uid.Nil, err
	}
	var classes []string
	for _, id := range append(comps, root) {
		if cl, err := t.m.engine.ClassOf(id); err == nil {
			classes = append(classes, cl.Name)
		}
	}
	sort.Strings(classes)
	for _, c := range slices.Compact(classes) {
		if err := t.m.locks.Lock(t.id, lock.ClassGranule(c), lock.IX); err != nil {
			return uid.Nil, err
		}
	}
	cp, mapping, err := t.m.engine.CopyComposite(t.TxnID(), root)
	if err != nil {
		return uid.Nil, err
	}
	for _, c := range mapping {
		if err := t.m.locks.Lock(t.id, lock.InstanceGranule(c), lock.X); err != nil {
			return uid.Nil, err
		}
	}
	return cp, nil
}

// Evolve runs a schema change (§4) within the transaction: schema
// admission (lock.Protocol.LockSchema) to the classes scope names, and to
// their instances if the change rewrites any, then change under the
// transaction's tag, so its rewrite is logged at commit and rolled back
// by an abort like any other write.
func (t *Txn) Evolve(scope func() []string, rewrites bool, change func(tx core.TxnID) error) error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.m.proto.LockSchema(t.id, scope, rewrites); err != nil {
		return err
	}
	return change(t.TxnID())
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
	comps, err := t.View().ComponentsOf(root, core.QueryOpts{Prof: t.prof})
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
	return t.m.engine.DeleteTx(t.TxnID(), id)
}

// Commit ends the transaction: the boundary logs its group, makes it
// durable (OnCommit — fsynced under SyncWAL via group commit) and
// publishes the overlay, then every lock is released. The ordering is load-bearing: releasing locks
// before the commit record is durable would let a reader observe state a
// crash then rolls back. On a boundary error the locks are still
// released and the error returned — the transaction's effects remain in
// memory but are not durable, and replay discards a group with no
// commit record.
func (t *Txn) Commit() error {
	if err := t.check(); err != nil {
		return err
	}
	t.done = true
	// Publish the overlay as one MVCC commit boundary before any lock is
	// released, so a snapshot begun from here on sees all of it or none.
	// Published even on a boundary error: the in-memory effects persist
	// either way.
	publish := func() { t.m.engine.CommitVersions(t.TxnID()) }
	var err error
	if t.m.boundary != nil {
		err = t.m.boundary.OnCommit(t.TxnID(), publish)
	} else {
		publish()
	}
	if tr := t.m.o.tr; tr.Active() {
		tr.Point(0, "txn.commit", obs.F("tx", t.id))
	}
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

// Abort rolls back every change and releases all locks. The engine drops
// the transaction's overlay (AbortVersions), which no one else ever saw;
// the boundary then drops the transaction's unlogged group, so an abort
// writes no log record. A boundary failure surfaces
// here, after every lock is released.
func (t *Txn) Abort() error {
	if err := t.check(); err != nil {
		return err
	}
	t.done = true
	t.m.o.aborts.Inc()
	if tr := t.m.o.tr; tr.Active() {
		tr.Point(0, "txn.abort", obs.F("tx", t.id))
	}
	t.m.engine.AbortVersions(t.TxnID())
	var err error
	if t.m.boundary != nil {
		err = t.m.boundary.OnAbort(t.TxnID())
	}
	t.finishProf("txn.abort", "abort")
	t.m.locks.ReleaseAll(t.id)
	return err
}

// Run executes fn in a transaction, committing on nil and aborting on
// error or panic. A deadlock victim is retried until it commits, after
// a back-off capped at 16 ms, each retry keeping its original identity
// (see BeginAt). This terminates: the wait-for graph victimizes the
// youngest member of a cycle and a retry keeps its TxID, so the oldest
// transaction is never a victim; it commits, and every transaction
// begun later is younger than each victim, which in turn becomes the
// oldest.
func (m *Manager) Run(fn func(*Txn) error) error {
	id := m.Reserve()
	begin := m.BeginAt
	for attempt := 0; ; attempt++ {
		t := begin(id)
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
		begin = m.BeginRetry
		// An immediate retry can re-acquire its locks and re-form the same
		// cycle before the parked survivor has even been scheduled.
		time.Sleep(time.Duration(1<<min(attempt, 4)) * time.Millisecond)
	}
}
