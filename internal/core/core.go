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

// Hook receives write-through notifications so a persistence layer can
// mirror the in-memory graph. tx tags the notification with the
// transaction performing the mutation (0 = engine-direct). Near is the
// clustering hint (the first parent at creation, §2.3), valid only for
// the creating write.
type Hook interface {
	OnWrite(tx TxnID, o *object.Object, near uid.UID) error
	OnDelete(tx TxnID, id uid.UID) error
}

// MultiHook fans write-through notifications out to several hooks in
// order (e.g. the persistence hook plus index maintenance). A failing
// hook aborts the chain.
type MultiHook []Hook

// OnWrite implements Hook.
func (m MultiHook) OnWrite(tx TxnID, o *object.Object, near uid.UID) error {
	for _, h := range m {
		if err := h.OnWrite(tx, o, near); err != nil {
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

// Engine is the composite-object manager. It is safe for concurrent use;
// mutations take the engine latch exclusively, while the pure queries in
// query.go run under the shared (read) side and so proceed in parallel
// (concurrency control at the transaction level is the lock manager's
// job, §7).
type Engine struct {
	mu      sync.RWMutex
	cat     *schema.Catalog
	gen     *uid.Generator
	objects map[uid.UID]*object.Object
	extents map[uid.ClassID]*uid.Set
	hook    Hook
	legacy  bool

	// plans and the obs instruments have their own synchronization:
	// readers fill them while holding only the read latch, or none (a
	// Snapshot).
	plans planMemo
	o     engineObs

	// mvcc is the copy-on-write version store behind BeginSnapshot: per-
	// object version chains keyed by a commit-sequence clock, installed
	// by the mutation funnels and read lock-free by Snapshot queries
	// (see mvcc.go).
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
		cat:     cat,
		gen:     uid.NewGenerator(),
		objects: make(map[uid.UID]*object.Object),
		extents: make(map[uid.ClassID]*uid.Set),
		plans:   planMemo{plans: make(map[planKey][]string)},
	}
	e.mvcc.pending = make(map[TxnID]map[uid.UID]*versionNode)
	e.mvcc.active = make(map[uint64]int)
	e.mvcc.pinned = make(map[uid.UID]struct{})
	e.bindObs(obs.NewRegistry())
	return e
}

// Catalog returns the engine's schema catalog.
func (e *Engine) Catalog() *schema.Catalog { return e.cat }

// SetHook installs the persistence hook (nil to disable).
func (e *Engine) SetHook(h Hook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hook = h
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
	e.mu.Lock()
	ok := e.evictLocked(id)
	e.mu.Unlock()
	if !ok {
		return nil
	}
	return e.writeThrough(0, nil, uid.Nil, uid.Nil, []uid.UID{id})
}

// evictLocked drops id from the object table and its extent and reports
// whether it was present. Caller holds e.mu for writing.
func (e *Engine) evictLocked(id uid.UID) bool {
	if _, ok := e.objects[id]; !ok {
		return false
	}
	delete(e.objects, id)
	if ext := e.extents[id.Class]; ext != nil {
		ext.Remove(id)
	}
	return true
}

// Snapshot returns a private deep copy of the object.
func (e *Engine) Snapshot(id uid.UID) (*object.Object, error) {
	return live(e, nil, func(r reader) (*object.Object, error) {
		o, err := r.src.fetch(id)
		if err != nil {
			return nil, err
		}
		return o.Clone(), nil
	})
}

// Load installs an object restored from storage without running creation
// semantics. It is used when reopening a database.
func (e *Engine) Load(o *object.Object) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.cat.ClassByID(o.Class()); err != nil {
		return err
	}
	e.objects[o.UID()] = o
	e.extentFor(o.Class()).Add(o.UID())
	e.gen.Seed(o.UID().Serial)
	e.installLocked([]uid.UID{o.UID()})
	return nil
}

func (e *Engine) extentFor(c uid.ClassID) *uid.Set {
	s := e.extents[c]
	if s == nil {
		s = uid.NewSet()
		e.extents[c] = s
	}
	return s
}

// get returns the live object, applying pending deferred schema changes
// (§4.3) first. ApplyPending mutates the object, so get requires the
// caller to hold e.mu for WRITING; read-locked paths go through live,
// whose source detects pending changes and reports errStaleCC instead of
// applying them.
func (e *Engine) get(id uid.UID) (*object.Object, error) {
	o, ok := e.objects[id]
	if !ok {
		return nil, fmt.Errorf("%v: %w", id, ErrNoObject)
	}
	cl, err := e.cat.ClassByID(id.Class)
	if err != nil {
		return nil, err
	}
	if n := e.cat.ApplyPending(cl.Name, o); n > 0 {
		e.o.evolutionReplays.Add(uint64(n))
		if tr := e.o.tr; tr.Active() {
			tr.Point(0, "core.evolution.replay", obs.F("uid", id), obs.F("changes", n))
		}
	}
	return o, nil
}

// Get returns the object with the given UID. The returned object is the
// engine's live record: callers must treat it as read-only and go through
// Engine methods for mutation.
func (e *Engine) Get(id uid.UID) (*object.Object, error) {
	return live(e, nil, func(r reader) (*object.Object, error) { return r.src.fetch(id) })
}

// Mutate runs fn on the live object under the engine's write lock as an
// engine-direct write (tx 0). Layers that keep out-of-band bookkeeping
// inside engine objects (the version manager's generic-level reverse
// references, §5.3) must use it (or MutateTx) instead of mutating an
// object returned by Get, so concurrent readers never observe a torn
// write.
func (e *Engine) Mutate(id uid.UID, fn func(o *object.Object)) error {
	return e.MutateTx(0, id, fn)
}

// MutateTx is Mutate tagged with the transaction performing the update:
// the object joins the transaction's write set and is written through
// like every other mutation.
func (e *Engine) MutateTx(tx TxnID, id uid.UID, fn func(o *object.Object)) error {
	e.mu.Lock()
	o, err := e.get(id)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	fn(o)
	dirty := newDirtySet()
	dirty.add(id)
	e.noteWritesLocked(tx, dirty, nil)
	e.mu.Unlock()
	return e.writeThrough(tx, dirty, uid.Nil, uid.Nil, nil)
}

// Exists reports whether the object is present.
func (e *Engine) Exists(id uid.UID) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, ok := e.objects[id]
	return ok
}

// Len returns the number of live objects.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.objects)
}

// ClassOf returns the class metaobject of an object.
func (e *Engine) ClassOf(id uid.UID) (*schema.Class, error) {
	return e.cat.ClassByID(id.Class)
}

// Extent returns the UIDs of the instances of the class, optionally
// including instances of subclasses, in UID order.
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

// New creates an instance of class per the make message (§2.3): attrs are
// the initial attribute values, parents the (ParentObject.i
// ParentAttributeName.i) pairs making the new instance a part of existing
// composite objects at creation time. When several parents are given, all
// the named attributes must be shared composite attributes (a consequence
// of Topology Rule 3, enforced here as the paper prescribes). The new
// object is clustered with the first parent.
func (e *Engine) New(class string, attrs map[string]value.Value, parents ...ParentSpec) (*object.Object, error) {
	return e.NewTx(0, class, attrs, parents...)
}

// NewTx is New tagged with the transaction performing the creation.
func (e *Engine) NewTx(tx TxnID, class string, attrs map[string]value.Value, parents ...ParentSpec) (*object.Object, error) {
	o, dirty, near, err := e.makeLocked(tx, class, attrs, parents)
	if err != nil {
		return nil, err
	}
	return o, e.writeThrough(tx, dirty, o.UID(), near, nil)
}

// makeLocked runs the make message under the exclusive latch, notes the
// write set for tx, and returns the created object, the dirty set for
// write-through, and the clustering hint.
func (e *Engine) makeLocked(tx TxnID, class string, attrs map[string]value.Value, parents []ParentSpec) (*object.Object, *dirtySet, uid.UID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cl, err := e.cat.Class(class)
	if err != nil {
		return nil, nil, uid.Nil, err
	}
	specs, err := e.cat.Attributes(class)
	if err != nil {
		return nil, nil, uid.Nil, err
	}
	// Validate parent specs before allocating anything.
	if len(parents) > 1 {
		for _, p := range parents {
			pcl, err := e.cat.ClassByID(p.Parent.Class)
			if err != nil {
				return nil, nil, uid.Nil, err
			}
			a, err := e.cat.Attribute(pcl.Name, p.Attr)
			if err != nil {
				return nil, nil, uid.Nil, err
			}
			if !a.Composite || a.Exclusive {
				return nil, nil, uid.Nil, fmt.Errorf("core: multiple parents require shared composite attributes; %s.%s is %s: %w",
					pcl.Name, p.Attr, a.RefKind(), ErrTopologyViolation)
			}
		}
	}
	o := object.New(e.gen.Next(cl.ID))
	o.SetCC(e.cat.CurrentCC())
	// Apply :init defaults, then explicit values.
	for _, s := range specs {
		if !s.Initial.IsNil() {
			o.Set(s.Name, s.Initial.Clone())
		}
	}
	e.objects[o.UID()] = o
	e.extentFor(cl.ID).Add(o.UID())
	dirty := newDirtySet()
	cleanup := func() {
		delete(e.objects, o.UID())
		e.extents[cl.ID].Remove(o.UID())
		// Unlink everything the partial make touched: reverse references
		// inserted into attribute-referenced children and forward
		// references set in already-attached parents. A failed make must
		// leave no trace, or the dangling edges violate the topology
		// invariants the next mutation checks.
		for _, id := range dirty.ids.Slice() {
			if id == o.UID() {
				continue
			}
			t, ok := e.objects[id]
			if !ok {
				continue
			}
			t.RemoveReverse(o.UID())
			for _, name := range t.AttrNames() {
				if v := t.Get(name); v.ContainsRef(o.UID()) {
					t.Set(name, v.WithoutRef(o.UID()))
				}
			}
		}
	}
	for name, v := range attrs {
		if err := e.setAttrLocked(o, name, v, dirty); err != nil {
			cleanup()
			return nil, nil, uid.Nil, err
		}
	}
	var near uid.UID
	for i, p := range parents {
		if err := e.attachLocked(p.Parent, p.Attr, o.UID(), dirty); err != nil {
			cleanup()
			return nil, nil, uid.Nil, err
		}
		if i == 0 {
			near = p.Parent
		}
	}
	dirty.add(o.UID())
	e.noteWritesLocked(tx, dirty, nil)
	return o, dirty, near, nil
}

// dirtySet accumulates mutated objects for write-through.
type dirtySet struct{ ids *uid.Set }

func newDirtySet() *dirtySet       { return &dirtySet{ids: uid.NewSet()} }
func (d *dirtySet) add(id uid.UID) { d.ids.Add(id) }

// writeThrough finishes a mutation under the SHARED latch: an
// engine-direct write (tx 0) publishes its write set as one MVCC commit
// boundary (a transaction's was noted under the exclusive latch and
// installs at CommitVersions), then the effects go to the hook (see
// notifyLocked). The caller has already spliced the graph under the
// exclusive latch, so writers of disjoint composite units encode and log
// in parallel here. The whole hook loop runs inside one continuous
// read-locked window: a splice needs the exclusive latch and therefore
// cannot interleave, which keeps every object's record order consistent
// with its mutation order (two concurrent windows that both cover an
// object write byte-identical records for it).
func (e *Engine) writeThrough(tx TxnID, d *dirtySet, created, near uid.UID, deleted []uid.UID) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if tx == 0 {
		var ids []uid.UID
		if d != nil {
			ids = d.ids.Slice()
		}
		e.installLocked(append(ids, deleted...))
	}
	return e.notifyLocked(tx, d, created, near, deleted)
}

// notifyLocked pushes effects to the hook under the transaction tag tx:
// first OnWrite for every object in d that is still live (created/near
// carry the clustering hint for a newly created object), then OnDelete
// for each id in deleted. Caller holds e.mu (read or write).
func (e *Engine) notifyLocked(tx TxnID, d *dirtySet, created, near uid.UID, deleted []uid.UID) error {
	h := e.hook
	if h == nil {
		return nil
	}
	if d != nil {
		for _, id := range d.ids.Slice() {
			o, ok := e.objects[id]
			if !ok {
				continue // deleted during the same operation
			}
			hint := uid.Nil
			if id == created {
				hint = near
			}
			if err := h.OnWrite(tx, o, hint); err != nil {
				return err
			}
		}
	}
	for _, id := range deleted {
		if err := h.OnDelete(tx, id); err != nil {
			return err
		}
	}
	return nil
}
