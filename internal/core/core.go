// Package core implements the paper's primary contribution: the extended
// model of composite objects (§2–§3).
//
// An Engine maintains the object graph against a schema catalog and
// enforces, on every mutation:
//
//   - the five reference types (weak, dependent/independent ×
//     exclusive/shared composite) carried by attribute specifications;
//   - Topology Rules 1–4 (§2.2), via the Make-Component Rule: an object
//     acquiring an exclusive composite parent must have no composite
//     parent at all, and one acquiring a shared composite parent must have
//     no exclusive composite parent;
//   - the Deletion Rule (§2.2): deleting an object recursively deletes the
//     objects it references through dependent exclusive references, and
//     through dependent shared references when it is the last
//     dependent-shared parent;
//   - reverse composite references (§2.4): every component records its
//     parents with D and X flags, kept in the component object itself.
//
// The Engine also supports the legacy [KIM87b] model as a baseline
// (SetLegacy): only dependent exclusive composite references, strict
// top-down creation, no re-parenting — the three shortcomings §1 calls
// out become errors, which the tests demonstrate and the benches compare.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

// Sentinel errors for composite-object operations.
var (
	ErrNoObject          = errors.New("core: no such object")
	ErrNotComposite      = errors.New("core: attribute is not composite")
	ErrTopologyViolation = errors.New("core: topology rule violation")
	ErrAttrOccupied      = errors.New("core: single-valued attribute already references an object")
	ErrNotReferenced     = errors.New("core: parent does not reference child through attribute")
	ErrLegacyRestriction = errors.New("core: operation not allowed under the KIM87b legacy model")
	ErrChangeRejected    = errors.New("core: state-dependent schema change rejected")
)

// TxnID identifies the transaction a mutation belongs to, threaded from
// the transaction layer through the engine into the persistence hook so
// the write-ahead log can delimit transactional record groups. Every write
// the db facade or the wire accepts carries a transaction's ID. The zero
// value is an engine-direct write made outside any transaction (engine
// unit tests, in-process benchmarks): it publishes its own version at
// once and its log records apply unconditionally on replay.
type TxnID uint64

// Hook receives write notifications: as write-through (SetHook), so a
// persistence layer can mirror the in-memory graph, or at publication
// (SetPublishHook). tx tags the notification with the
// transaction performing the mutation (0 = engine-direct).
type Hook interface {
	OnWrite(tx TxnID, o *object.Object) error
	OnDelete(tx TxnID, id uid.UID) error
}

// MultiHook fans write-through notifications out to several hooks in
// order (e.g. the persistence hook plus index maintenance). A failing
// hook aborts the chain.
type MultiHook []Hook

// OnWrite implements Hook.
func (m MultiHook) OnWrite(tx TxnID, o *object.Object) error {
	for _, h := range m {
		if err := h.OnWrite(tx, o); err != nil {
			return err
		}
	}
	return nil
}

// OnDelete implements Hook.
func (m MultiHook) OnDelete(tx TxnID, id uid.UID) error {
	for _, h := range m {
		if err := h.OnDelete(tx, id); err != nil {
			return err
		}
	}
	return nil
}

// ParentSpec names one (ParentObject.i ParentAttributeName.i) pair of the
// make message (§2.3).
type ParentSpec struct {
	Parent uid.UID
	Attr   string
}

// Engine is the composite-object manager. It is safe for concurrent use.
// An object is its committed version: the head of its MVCC chain (see
// mvcc.go); there is no second, mutable copy. A mutation takes the engine
// latch exclusively and writes private copies in its transaction's
// overlay, which CommitVersions publishes as the new heads; an
// engine-direct write (tx 0) publishes its own when it ends. The queries
// (query.go) run under the shared latch, so they proceed in parallel and
// read an implicit snapshot at the clock (concurrency control at the
// transaction level is the lock manager's job, §7).
type Engine struct {
	// View is the committed-heads view: Engine.Get and the §3 queries
	// called on the engine answer from it.
	View

	mu      sync.RWMutex
	cat     *schema.Catalog
	gen     *uid.Generator
	hook    Hook
	pubHook Hook
	legacy  bool

	// heads maps each committed object to itself (the head of its chain,
	// for latched reads without the version store's hashing), extents
	// lists them per class, and overlays holds each open transaction's
	// write set. All three are guarded by mu.
	heads    map[uid.UID]*object.Object
	extents  map[uid.ClassID]*uid.Set
	overlays map[TxnID]overlay

	// plans and the obs instruments have their own synchronization:
	// readers fill them while holding only the read latch, or none (a
	// Snapshot).
	plans planMemo
	o     engineObs

	// mvcc is the version store: per-object version chains keyed by a
	// commit-sequence clock, whose heads are the committed objects (see
	// mvcc.go).
	mvcc mvccState

	// catView caches the immutable catalog clone snapshots pin (one per
	// catalog version; see catalogView).
	catViewMu sync.Mutex
	catView   *schema.Catalog
}

// NewEngine returns an empty engine over the catalog, instrumented with
// a private obs registry (swap in a shared one with SetObservability).
func NewEngine(cat *schema.Catalog) *Engine {
	e := &Engine{
		cat:      cat,
		gen:      uid.NewGenerator(),
		heads:    make(map[uid.UID]*object.Object),
		extents:  make(map[uid.ClassID]*uid.Set),
		overlays: make(map[TxnID]overlay),
		plans:    planMemo{plans: make(map[planKey][]string)},
	}
	e.View = View{e: e}
	e.mvcc.active = make(map[uint64]int)
	e.mvcc.pinned = make(map[uid.UID]struct{})
	e.bindObs(obs.NewRegistry())
	return e
}

// Catalog returns the engine's schema catalog.
func (e *Engine) Catalog() *schema.Catalog { return e.cat }

// SetHook installs the write-through hook (nil to disable): the
// persistence layer, told of every write as it is made.
func (e *Engine) SetHook(h Hook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hook = h
}

// SetPublishHook installs the publish hook (nil to disable): told, under
// the exclusive latch, of every object a commit boundary publishes
// (OnWrite) and every deletion it publishes
// (OnDelete). Structures that must hold committed values only, such as
// the secondary indexes, follow the heads through it; an abort publishes
// nothing and so calls no hook.
func (e *Engine) SetPublishHook(h Hook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pubHook = h
}

// SetLegacy toggles the [KIM87b] baseline model. In legacy mode composite
// attributes must be dependent exclusive, objects may only be composed at
// creation time under an already-existing parent (top-down), and existing
// objects cannot be attached (no bottom-up assembly, no shared parts, no
// re-use after dismantling).
func (e *Engine) SetLegacy(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.legacy = on
}

// Legacy reports whether the engine runs the [KIM87b] baseline model.
func (e *Engine) Legacy() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.legacy
}

// Evict removes the object without running the Deletion Rule, as an
// engine-direct write through the hook: a repair primitive, which the
// simulation's sabotage mode and the integrity tests use to plant a
// dangling reference. It is a no-op if the object is absent.
func (e *Engine) Evict(id uid.UID) error {
	_, err := e.write(0, func(w *op) ([]uid.UID, error) {
		if w.peek(id) == nil {
			return nil, nil
		}
		w.remove(id)
		return []uid.UID{id}, nil
	})
	return err
}

// Restore installs recovered committed state as one commit boundary,
// without running creation or deletion semantics: each object becomes
// the committed version of its UID, and a nil entry removes the UID's
// object, if any. The UID generator is seeded past every UID named,
// deletions included, so a reopened database never issues a deleted
// object's UID again. It is used when reopening a database.
func (e *Engine) Restore(objs map[uid.UID]*object.Object) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for id, o := range objs {
		if o != nil {
			if _, err := e.cat.ClassByID(o.Class()); err != nil {
				return err
			}
		}
		e.gen.Seed(id.Serial)
	}
	e.publishLocked(objs)
	return nil
}

// LastUID returns the highest UID serial issued so far.
func (e *Engine) LastUID() uint64 { return e.gen.Current() }

// SeedUID makes every UID issued from now on have a serial above n.
func (e *Engine) SeedUID(n uint64) { e.gen.Seed(n) }

func (e *Engine) extentFor(c uid.ClassID) *uid.Set {
	s := e.extents[c]
	if s == nil {
		s = uid.NewSet()
		e.extents[c] = s
	}
	return s
}

// convert applies the deferred schema changes (§4.3) newer than o's CC
// stamp to o, which must be private: an overlay copy, or a fetched head's
// clone. A shared record is never converted in place.
func (e *Engine) convert(o *object.Object) {
	if o.CC() >= e.cat.CurrentCC() {
		return
	}
	cl, err := e.cat.ClassByID(o.Class())
	if err != nil {
		return
	}
	if n := e.cat.ApplyPending(cl.Name, o); n > 0 {
		e.o.evolutionReplays.Add(uint64(n))
		if tr := e.o.tr; tr.Active() {
			tr.Point(0, "core.evolution.replay", obs.F("uid", o.UID()), obs.F("changes", n))
		}
	}
}

// pending decides whether deferred schema changes (§4.3) newer than an
// object's CC stamp still apply to it. It memoizes, per class, the
// highest CC of a change applicable to its instances, so the test costs
// one catalog lookup per class per query or operation.
type pending struct {
	e    *Engine
	cc   uint64
	ceil map[uid.ClassID]uint64
}

func (e *Engine) pending() pending { return pending{e: e, cc: e.cat.CurrentCC()} }

func (p *pending) on(o *object.Object) bool {
	if o.CC() >= p.cc {
		return false
	}
	v, ok := p.ceil[o.Class()]
	if !ok {
		if cl, err := p.e.cat.ClassByID(o.Class()); err == nil {
			if entries := p.e.cat.Pending(cl.Name, 0); len(entries) > 0 {
				v = entries[len(entries)-1].CC
			}
		}
		if p.ceil == nil {
			p.ceil = make(map[uid.ClassID]uint64)
		}
		p.ceil[o.Class()] = v
	}
	return o.CC() < v
}

// Mutate runs fn on the object as an engine-direct write (tx 0). Layers
// that keep out-of-band bookkeeping inside engine objects (the version
// manager's generic-level reverse references, §5.3) must use it (or
// MutateTx) instead of mutating an object returned by Get, which is the
// shared committed version.
func (e *Engine) Mutate(id uid.UID, fn func(o *object.Object)) error {
	return e.MutateTx(0, id, fn)
}

// MutateTx is Mutate tagged with the transaction performing the update:
// fn runs on the transaction's private copy, which joins its write set
// and is written through like every other mutation.
func (e *Engine) MutateTx(tx TxnID, id uid.UID, fn func(o *object.Object)) error {
	_, err := e.write(tx, func(w *op) ([]uid.UID, error) {
		o, err := w.get(id)
		if err != nil {
			return nil, err
		}
		fn(o)
		w.dirty.Add(id)
		return nil, nil
	})
	return err
}

// Len returns the number of committed objects.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.heads)
}

// ClassOf returns the class metaobject of an object.
func (e *Engine) ClassOf(id uid.UID) (*schema.Class, error) {
	return e.cat.ClassByID(id.Class)
}

// Extent returns the UIDs of the committed instances of the class,
// optionally including instances of subclasses, in UID order.
func (e *Engine) Extent(class string, includeSubclasses bool) ([]uid.UID, error) {
	names := []string{class}
	if includeSubclasses {
		names = e.cat.AllSubclasses(class)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []uid.UID
	for _, n := range names {
		cl, err := e.cat.Class(n)
		if err != nil {
			return nil, err
		}
		out = append(out, e.extents[cl.ID].Slice()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// Instances calls fn with the committed instances of class and its
// subclasses, under the shared latch: no commit boundary publishes until
// fn returns, so what fn builds from them is current when the next
// publication reaches the publish hook. fn must not call the engine.
func (e *Engine) Instances(class string, fn func(objs []*object.Object) error) error {
	names := e.cat.AllSubclasses(class)
	e.mu.RLock()
	defer e.mu.RUnlock()
	var objs []*object.Object
	for _, n := range names {
		cl, err := e.cat.Class(n)
		if err != nil {
			return err
		}
		for _, id := range e.extents[cl.ID].Slice() {
			objs = append(objs, e.head(id))
		}
	}
	return fn(objs)
}

// New creates an instance of class per the make message (§2.3): attrs are
// the initial attribute values, parents the (ParentObject.i
// ParentAttributeName.i) pairs making the new instance a part of existing
// composite objects at creation time. When several parents are given, all
// the named attributes must be shared composite attributes (a consequence
// of Topology Rule 3, enforced here as the paper prescribes).
func (e *Engine) New(class string, attrs map[string]value.Value, parents ...ParentSpec) (*object.Object, error) {
	return e.NewTx(0, class, attrs, parents...)
}

// NewTx is New tagged with the transaction performing the creation. The
// returned object is the state the creation left, read-only: the
// transaction's copy, or for tx 0 the published version.
func (e *Engine) NewTx(tx TxnID, class string, attrs map[string]value.Value, parents ...ParentSpec) (*object.Object, error) {
	var o *object.Object
	_, err := e.write(tx, func(w *op) (_ []uid.UID, err error) {
		o, err = w.make(class, attrs, parents)
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	return o, nil
}

// make runs the make message. A failure leaves no trace: the operation's
// layer, with every reference it linked, is dropped.
func (w *op) make(class string, attrs map[string]value.Value, parents []ParentSpec) (*object.Object, error) {
	e := w.e
	cl, err := e.cat.Class(class)
	if err != nil {
		return nil, err
	}
	specs, err := e.cat.Attributes(class)
	if err != nil {
		return nil, err
	}
	// Validate parent specs before allocating anything.
	if len(parents) > 1 {
		for _, p := range parents {
			pcl, err := e.cat.ClassByID(p.Parent.Class)
			if err != nil {
				return nil, err
			}
			a, err := e.cat.Attribute(pcl.Name, p.Attr)
			if err != nil {
				return nil, err
			}
			if !a.Composite || a.Exclusive {
				return nil, fmt.Errorf("core: multiple parents require shared composite attributes; %s.%s is %s: %w",
					pcl.Name, p.Attr, a.RefKind(), ErrTopologyViolation)
			}
		}
	}
	o := object.New(e.gen.Next(cl.ID))
	o.SetCC(e.cat.CurrentCC())
	// Apply :init defaults, then explicit values. Values are immutable,
	// so every instance shares its class's default.
	for _, s := range specs {
		o.Set(s.Name, s.Initial)
	}
	w.objs[o.UID()] = o
	for name, v := range attrs {
		if err := w.setAttr(o, name, v); err != nil {
			return nil, err
		}
	}
	for _, p := range parents {
		if err := w.attach(p.Parent, p.Attr, o.UID(), makeComponentCheck); err != nil {
			return nil, err
		}
	}
	w.dirty.Add(o.UID())
	return o, nil
}

// op is one mutation in progress under the exclusive latch. It writes
// into a layer of its own (objs) over its transaction's overlay (base;
// nil for an engine-direct write) and the published heads: get copies an
// object into the layer at its first touch, and remove marks it deleted
// there (nil). When the operation succeeds, the objects it marked dirty
// or deleted join the transaction's overlay, or for tx 0 are published;
// when it fails, the layer is dropped and nothing it did remains.
type op struct {
	e    *Engine
	tx   TxnID
	base overlay
	objs overlay
	// dirty lists, in order, the objects the operation changed: what it
	// keeps and writes through.
	dirty *uid.Set
	pend  pending
}

// lookup returns id's current state as the operation sees it (nil when
// it does not exist) and whether that state is the operation's own copy.
func (w *op) lookup(id uid.UID) (*object.Object, bool) {
	if o, ok := w.objs[id]; ok {
		return o, true
	}
	if o, ok := w.base[id]; ok {
		return o, false
	}
	return w.e.head(id), false
}

// get returns id for writing: the operation's own copy, cloned at its
// first touch from the transaction's overlay or the head and converted
// there, which is where a deferred schema change (§4.3) gets logged.
func (w *op) get(id uid.UID) (*object.Object, error) {
	o, own := w.lookup(id)
	if o == nil {
		return nil, fmt.Errorf("%v: %w", id, ErrNoObject)
	}
	if !own {
		o = o.Clone()
		w.e.convert(o)
		w.objs[id] = o
	}
	return o, nil
}

// peek returns id for reading only, nil when it does not exist. It copies
// nothing unless deferred schema changes pend on the state it finds.
func (w *op) peek(id uid.UID) *object.Object {
	o, own := w.lookup(id)
	if o == nil || own || !w.pend.on(o) {
		return o
	}
	o, _ = w.get(id)
	return o
}

// remove marks id deleted by the operation.
func (w *op) remove(id uid.UID) { w.objs[id] = nil }

// write runs one mutation: fn under the exclusive latch, then, if it
// succeeded, its effects go to the hook under the SHARED latch in the
// order dirty, then deleted (returned sorted). Writers of disjoint
// composite units therefore encode and log in parallel. The whole hook
// loop runs inside one continuous read-locked window, and reads each
// object's newest state at notification time: a splice needs the
// exclusive latch and cannot interleave, so two concurrent windows that
// both cover an object write byte-identical records for it.
func (e *Engine) write(tx TxnID, fn func(w *op) ([]uid.UID, error)) ([]uid.UID, error) {
	return e.writeOp(tx, tx == 0, fn)
}

// evolve runs a schema change's rewrite as write does, and publishes its
// transaction's overlay in the same exclusive-latch window: the catalog
// change is visible to every reader as soon as it is made, so the objects
// it rewrites must be too. The transaction still logs the rewrite and
// commits it; only the publication moves ahead of the commit record.
func (e *Engine) evolve(tx TxnID, fn func(w *op) ([]uid.UID, error)) ([]uid.UID, error) {
	return e.writeOp(tx, true, fn)
}

func (e *Engine) writeOp(tx TxnID, publish bool, fn func(w *op) ([]uid.UID, error)) ([]uid.UID, error) {
	e.mu.Lock()
	w := &op{e: e, tx: tx, base: e.overlays[tx], objs: make(overlay), dirty: uid.NewSet(), pend: e.pending()}
	deleted, err := fn(w)
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	sort.Slice(deleted, func(i, j int) bool { return deleted[i].Less(deleted[j]) })
	ov := w.base // what the operation keeps joins the transaction's overlay
	if ov == nil && w.dirty.Len()+len(deleted) > 0 {
		ov = make(overlay, w.dirty.Len()+len(deleted))
		if !publish {
			e.overlays[tx] = ov
		}
	}
	for _, id := range w.dirty.Slice() {
		if o, ok := w.objs[id]; ok {
			ov[id] = o
		}
	}
	for _, id := range deleted {
		ov[id] = nil
	}
	if publish { // ...which is published now
		delete(e.overlays, tx)
		e.publishLocked(ov)
	}
	e.mu.Unlock()
	if err := e.notify(tx, w.dirty, deleted); err != nil {
		return nil, err
	}
	return deleted, nil
}

// notify pushes a write's effects to the hook under the transaction tag
// tx: first OnWrite for every object in dirty that still exists, in its
// newest state, then OnDelete for each id in deleted.
func (e *Engine) notify(tx TxnID, dirty *uid.Set, deleted []uid.UID) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	h := e.hook
	if h == nil {
		return nil
	}
	ov := e.overlays[tx]
	for _, id := range dirty.Slice() {
		o, ok := ov[id]
		if !ok {
			o = e.head(id)
		}
		if o == nil {
			continue // deleted during the same operation
		}
		if err := h.OnWrite(tx, o); err != nil {
			return err
		}
	}
	for _, id := range deleted {
		if err := h.OnDelete(tx, id); err != nil {
			return err
		}
	}
	return nil
}
