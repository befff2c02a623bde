package core

import (
	"fmt"
	"sync"

	"repro/internal/object"
	"repro/internal/schema"
	"repro/internal/uid"
)

// The §3 queries are written once, as walks over a source. A source
// resolves a UID to an object; it has two forms:
//
//   - the committed heads, through a transaction's overlay first when
//     the view is a transaction's (headSource, under the engine's shared
//     latch), which converts a head that deferred schema changes pend on
//     into a private copy;
//   - a snapshot's version chains at its sequence number (*Snapshot),
//     which reads each version as it was published and makes no
//     staleness check.
//
// A missing object costs a walk no error unless it reports one. A walk
// takes no lock of its own: a View's methods run it through read,
// which holds the latch for the heads and nothing for a snapshot.
type source interface {
	object(id uid.UID) *object.Object // nil when missing
}

// reader answers the §3 queries over one source, planning against cat:
// the catalog, or the clone a snapshot pinned. w is the read's pooled
// scratch (see walk).
type reader struct {
	e   *Engine
	src source
	cat *schema.Catalog
	ver uint64 // cat.Version() when the reader was made
	w   *walk
}

func (e *Engine) reader(src source, cat *schema.Catalog, w *walk) reader {
	return reader{e: e, src: src, cat: cat, ver: cat.Version(), w: w}
}

// walk is the scratch of one read: the visited set, the frontier and
// next levels, a kids buffer, the result buffer and the per-walk plan
// memo, plus the head source a heads read resolves through. Reads take
// one from walks and return it when they end, so a walk's steady state
// allocates only the result it hands back.
//
// A returned walk is cleared and its object slots are zeroed: the pool
// holds no object, overlay or engine, and so keeps none alive. A walk
// whose visited set or kids buffer grew past maxPooledWalk entries is
// dropped instead, so one huge composite does not leave its set's
// memory in the pool for the process's lifetime.
type walk struct {
	heads    headSource
	seen     map[uid.UID]struct{}
	memo     map[uid.ClassID][]string
	frontier []*object.Object
	next     []*object.Object
	kids     []uid.UID
	out      []uid.UID
}

// maxPooledWalk bounds the entries of a pooled walk's visited set and
// kids buffer, and so its frontiers and result buffer, which hold
// visited objects: under 100 KiB of map and slices in all.
const maxPooledWalk = 1024

var walks = sync.Pool{New: func() any {
	return &walk{seen: make(map[uid.UID]struct{}), memo: make(map[uid.ClassID][]string)}
}}

func getWalk() *walk { return walks.Get().(*walk) }

// release returns w to the pool, cleared, or drops it when it grew past
// maxPooledWalk.
func (w *walk) release() {
	if len(w.seen) > maxPooledWalk || cap(w.kids) > maxPooledWalk {
		return
	}
	w.heads = headSource{}
	clear(w.seen)
	clear(w.memo)
	clear(w.frontier[:cap(w.frontier)])
	clear(w.next[:cap(w.next)])
	w.frontier, w.next = w.frontier[:0], w.next[:0]
	w.kids, w.out = w.kids[:0], w.out[:0]
	walks.Put(w)
}

// start begins the walk at o, whose UID is first. A read runs at most
// one walk, so the scratch is as release left it: empty.
func (w *walk) start(first uid.UID, o *object.Object) {
	w.seen[first] = struct{}{}
	w.frontier = append(w.frontier, o)
}

// add inserts id in the visited set and reports whether it was not
// there yet.
func (w *walk) add(id uid.UID) bool {
	if _, ok := w.seen[id]; ok {
		return false
	}
	w.seen[id] = struct{}{}
	return true
}

// advance makes the next level the frontier and empties the next level,
// reusing the old frontier's array for it.
func (w *walk) advance() {
	clear(w.frontier)
	w.frontier, w.next = w.next, w.frontier[:0]
}

// result is the caller's copy of the result buffer: nil when empty, else
// one allocation of the exact length. A result past maxPooledWalk is the
// buffer itself: its visited set is larger still, so release drops the
// scratch rather than reuse it.
func (w *walk) result() []uid.UID {
	switch out := w.out; {
	case len(out) == 0:
		return nil
	case len(out) > maxPooledWalk:
		w.out = nil
		return out
	default:
		return append([]uid.UID(nil), out...)
	}
}

// fetch resolves id, or fails with ErrNoObject.
func (r reader) fetch(id uid.UID) (*object.Object, error) { return found(id, r.src.object(id)) }

// planKey identifies a composite traversal plan: the composite
// attributes of a class that pass an Exclusive/Shared edge filter, as
// the catalog at version ver defines them.
type planKey struct {
	ver       uint64
	class     uid.ClassID
	exclusive bool
	shared    bool
}

// planMemo holds the traversal plans of every walk, heads and snapshot
// alike. Resolving a class's attributes walks the inheritance lattice,
// which dominates traversal cost on deep schemas. A key carries the
// catalog version it was read at and a pinned clone keeps its version, so
// a snapshot never uses a plan of a schema it does not see. Entries of
// older versions are dropped when a newer one is stored.
type planMemo struct {
	mu     sync.RWMutex
	latest uint64
	plans  map[planKey][]string
}

func (m *planMemo) lookup(k planKey) ([]string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	attrs, ok := m.plans[k]
	return attrs, ok
}

func (m *planMemo) store(k planKey, attrs []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if k.ver > m.latest {
		for old := range m.plans {
			if old.ver < k.ver {
				delete(m.plans, old)
			}
		}
		m.latest = k.ver
	}
	m.plans[k] = attrs
}

// plan returns the composite attributes of class c passing q's edge
// filter. The walk's own memo holds each answer, so the shared memo is
// consulted (and counted) once per class per walk.
func (r reader) plan(c uid.ClassID, q QueryOpts) []string {
	if names, ok := r.w.memo[c]; ok {
		return names
	}
	key := planKey{ver: r.ver, class: c, exclusive: q.Exclusive, shared: q.Shared}
	names, ok := r.e.plans.lookup(key)
	if ok {
		r.e.o.planHits.Inc()
		q.Prof.CacheHit()
	} else {
		r.e.o.planMisses.Inc()
		q.Prof.CacheMiss()
		if cl, err := r.cat.ClassByID(c); err == nil {
			if attrs, err := r.cat.Attributes(cl.Name); err == nil {
				for _, spec := range attrs {
					if spec.Composite && q.wantEdge(spec.Exclusive) {
						names = append(names, spec.Name)
					}
				}
			}
		}
		// A catalog mutation advances the version before it releases the
		// catalog lock, so an unchanged version means names were read
		// from the schema at r.ver.
		if r.cat.Version() == r.ver {
			r.e.plans.store(key, names)
		}
	}
	r.w.memo[c] = names
	return names
}

// wantClass reports whether id's class passes the Classes filter
// (subclasses included).
func (r reader) wantClass(q QueryOpts, id uid.UID) bool {
	if len(q.Classes) == 0 {
		return true
	}
	cl, err := r.cat.ClassByID(id.Class)
	if err != nil {
		return false
	}
	for _, want := range q.Classes {
		if r.cat.IsA(cl.Name, want) {
			return true
		}
	}
	return false
}

// components is (components-of ...): the objects reachable from id over
// composite references passing the edge filter, in BFS level order, down
// to q.Level levels (0 = all). A reference to a missing object is
// skipped, or is ErrDangling under q.Strict.
func (r reader) components(id uid.UID, q QueryOpts) ([]uid.UID, error) {
	root, err := r.fetch(id)
	if err != nil {
		return nil, err
	}
	w := r.w
	w.start(id, root)
	for level := 0; len(w.frontier) > 0 && (q.Level <= 0 || level < q.Level); level++ {
		for _, o := range w.frontier {
			w.kids = w.kids[:0]
			for _, name := range r.plan(o.Class(), q) {
				w.kids = o.Get(name).Refs(w.kids)
			}
			for _, child := range w.kids {
				if !w.add(child) {
					continue
				}
				co := r.src.object(child)
				if co == nil {
					if q.Strict {
						return nil, fmt.Errorf("core: %v references missing component %v: %w",
							o.UID(), child, ErrDangling)
					}
					continue
				}
				if r.wantClass(q, child) {
					w.out = append(w.out, child)
				}
				w.next = append(w.next, co)
			}
		}
		w.advance()
	}
	return w.result(), nil
}

// parents is (parents-of ...): the objects holding a composite reference
// to id, read from its reverse references (§2.4).
func (r reader) parents(id uid.UID, q QueryOpts) ([]uid.UID, error) {
	o, err := r.fetch(id)
	if err != nil {
		return nil, err
	}
	var out []uid.UID
	for _, ref := range o.Reverse() {
		if q.wantEdge(ref.Exclusive) && r.wantClass(q, ref.Parent) {
			out = append(out, ref.Parent)
		}
	}
	return out, nil
}

// ancestors is (ancestors-of ...): the closure of parents, in BFS order.
// A reverse reference to a missing parent still reports the parent, as
// parents does, but is not expanded; under q.Strict it is ErrDangling.
func (r reader) ancestors(id uid.UID, q QueryOpts) ([]uid.UID, error) {
	start, err := r.fetch(id)
	if err != nil {
		return nil, err
	}
	w := r.w
	w.start(id, start)
	for len(w.frontier) > 0 {
		for _, o := range w.frontier {
			for _, ref := range o.Reverse() {
				if !q.wantEdge(ref.Exclusive) || !w.add(ref.Parent) {
					continue
				}
				po := r.src.object(ref.Parent)
				if po == nil && q.Strict {
					return nil, fmt.Errorf("core: %v holds a reverse reference to missing parent %v: %w",
						o.UID(), ref.Parent, ErrDangling)
				}
				if r.wantClass(q, ref.Parent) {
					w.out = append(w.out, ref.Parent)
				}
				if po != nil {
					w.next = append(w.next, po)
				}
			}
		}
		w.advance()
	}
	return w.result(), nil
}

// roots returns the ancestors of id (or id itself) with no composite
// parent: the roots of the composite objects containing id (§2.4).
func (r reader) roots(id uid.UID) ([]uid.UID, error) {
	o, err := r.fetch(id)
	if err != nil {
		return nil, err
	}
	if !o.HasAnyReverse() {
		return []uid.UID{id}, nil
	}
	w := r.w
	w.start(id, o)
	for len(w.frontier) > 0 {
		for _, o := range w.frontier {
			for _, ref := range o.Reverse() {
				if !w.add(ref.Parent) {
					continue
				}
				po := r.src.object(ref.Parent)
				if po == nil {
					continue
				}
				if po.HasAnyReverse() {
					w.next = append(w.next, po)
				} else {
					w.out = append(w.out, ref.Parent)
				}
			}
		}
		w.advance()
	}
	return w.result(), nil
}

// level returns n such that a is a level-n component of b (the shortest
// composite path from b to a, §2.2), or -1 when a is not a component of
// b. Both objects must exist.
func (r reader) level(a, b uid.UID) (int, error) {
	start, err := r.fetch(a)
	if err != nil {
		return -1, err
	}
	if _, err := r.fetch(b); err != nil {
		return -1, err
	}
	w := r.w
	w.start(a, start)
	for n := 1; len(w.frontier) > 0; n++ {
		for _, o := range w.frontier {
			for _, ref := range o.Reverse() {
				if ref.Parent == b {
					return n, nil
				}
				if !w.add(ref.Parent) {
					continue
				}
				if po := r.src.object(ref.Parent); po != nil {
					w.next = append(w.next, po)
				}
			}
		}
		w.advance()
	}
	return -1, nil
}

// componentOf is (component-of a b): a is a direct or indirect component
// of b. It searches up from a over the reverse references, as §3.2
// suggests, rather than down b's components.
func (r reader) componentOf(a, b uid.UID) (bool, error) {
	if a == b {
		_, err := r.fetch(a)
		return false, err
	}
	n, err := r.level(a, b)
	return n > 0, err
}

// childOf is (child-of a b): a is a direct component of b.
func (r reader) childOf(a, b uid.UID) (bool, error) {
	o, err := r.fetch(a)
	if err != nil {
		return false, err
	}
	if _, err := r.fetch(b); err != nil {
		return false, err
	}
	return o.HasReverse(b), nil
}

// componentHeld is (exclusive-component-of a b) with exclusive set and
// (shared-component-of a b) without: a is a component of b, and its
// composite parents hold it exclusively (or not). Not a component at all
// answers false either way (§3.2).
func (r reader) componentHeld(a, b uid.UID, exclusive bool) (bool, error) {
	is, err := r.componentOf(a, b)
	if err != nil || !is {
		return false, err
	}
	o, err := r.fetch(a)
	if err != nil {
		return false, err
	}
	return o.HasExclusiveReverse() == exclusive, nil
}

// PartitionSets are the four partition sets of Definition 1 (§2.2): the
// parents of an object split by the D and X flags of the composite
// reference holding it. Slices are in reverse-reference order and owned by
// the caller.
type PartitionSets struct {
	IX []uid.UID // independent exclusive
	DX []uid.UID // dependent exclusive
	IS []uid.UID // independent shared
	DS []uid.UID // dependent shared
}

// partitions returns id's partition sets, from its reverse references.
func (r reader) partitions(id uid.UID) (PartitionSets, error) {
	o, err := r.fetch(id)
	if err != nil {
		return PartitionSets{}, err
	}
	return PartitionSets{IX: o.IX(), DX: o.DX(), IS: o.IS(), DS: o.DS()}, nil
}
