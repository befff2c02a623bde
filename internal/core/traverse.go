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
// A walk takes no lock of its own: a View's methods run it through read,
// which holds the latch for the heads and nothing for a snapshot.
type source interface {
	fetch(id uid.UID) (*object.Object, error)
}

// reader answers the §3 queries over one source, planning against cat:
// the catalog, or the clone a snapshot pinned.
type reader struct {
	e   *Engine
	src source
	cat *schema.Catalog
	ver uint64 // cat.Version() when the reader was made
}

func (e *Engine) reader(src source, cat *schema.Catalog) reader {
	return reader{e: e, src: src, cat: cat, ver: cat.Version()}
}

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
// filter. memo is the walk's own map, so the shared memo is consulted
// (and counted) once per class per walk.
func (r reader) plan(memo map[uid.ClassID][]string, c uid.ClassID, q QueryOpts) []string {
	if names, ok := memo[c]; ok {
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
	memo[c] = names
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

// visited is the set of UIDs a walk has reached. It starts as a small
// map and grows: a size hint large enough for a whole composite object
// costs more bytes than it saves on the short ancestor walks and
// one-level reads that make up most walks.
type visited map[uid.UID]struct{}

func newVisited(start uid.UID) visited {
	return visited{start: {}}
}

// add inserts id and reports whether it was not there yet.
func (s visited) add(id uid.UID) bool {
	if _, ok := s[id]; ok {
		return false
	}
	s[id] = struct{}{}
	return true
}

// components is (components-of ...): the objects reachable from id over
// composite references passing the edge filter, in BFS level order, down
// to q.Level levels (0 = all). A reference to a missing object is
// skipped, or is ErrDangling under q.Strict.
func (r reader) components(id uid.UID, q QueryOpts) ([]uid.UID, error) {
	root, err := r.src.fetch(id)
	if err != nil {
		return nil, err
	}
	memo := make(map[uid.ClassID][]string)
	seen := newVisited(id)
	frontier := []*object.Object{root}
	var out, kids []uid.UID
	for level := 0; len(frontier) > 0 && (q.Level <= 0 || level < q.Level); level++ {
		var next []*object.Object
		for _, o := range frontier {
			kids = kids[:0]
			for _, name := range r.plan(memo, o.Class(), q) {
				kids = o.Get(name).Refs(kids)
			}
			for _, child := range kids {
				if !seen.add(child) {
					continue
				}
				co, err := r.src.fetch(child)
				if err != nil {
					if q.Strict {
						return nil, fmt.Errorf("core: %v references missing component %v: %w",
							o.UID(), child, ErrDangling)
					}
					continue
				}
				if r.wantClass(q, child) {
					out = append(out, child)
				}
				next = append(next, co)
			}
		}
		frontier = next
	}
	return out, nil
}

// parents is (parents-of ...): the objects holding a composite reference
// to id, read from its reverse references (§2.4).
func (r reader) parents(id uid.UID, q QueryOpts) ([]uid.UID, error) {
	o, err := r.src.fetch(id)
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
	start, err := r.src.fetch(id)
	if err != nil {
		return nil, err
	}
	seen := newVisited(id)
	frontier := []*object.Object{start}
	var out []uid.UID
	for len(frontier) > 0 {
		var next []*object.Object
		for _, o := range frontier {
			for _, ref := range o.Reverse() {
				if !q.wantEdge(ref.Exclusive) || !seen.add(ref.Parent) {
					continue
				}
				po, err := r.src.fetch(ref.Parent)
				if err != nil && q.Strict {
					return nil, fmt.Errorf("core: %v holds a reverse reference to missing parent %v: %w",
						o.UID(), ref.Parent, ErrDangling)
				}
				if r.wantClass(q, ref.Parent) {
					out = append(out, ref.Parent)
				}
				if err == nil {
					next = append(next, po)
				}
			}
		}
		frontier = next
	}
	return out, nil
}

// roots returns the ancestors of id (or id itself) with no composite
// parent: the roots of the composite objects containing id (§2.4).
func (r reader) roots(id uid.UID) ([]uid.UID, error) {
	o, err := r.src.fetch(id)
	if err != nil {
		return nil, err
	}
	if !o.HasAnyReverse() {
		return []uid.UID{id}, nil
	}
	seen := newVisited(id)
	frontier := []*object.Object{o}
	var roots []uid.UID
	for len(frontier) > 0 {
		var next []*object.Object
		for _, o := range frontier {
			for _, ref := range o.Reverse() {
				if !seen.add(ref.Parent) {
					continue
				}
				po, err := r.src.fetch(ref.Parent)
				if err != nil {
					continue
				}
				if po.HasAnyReverse() {
					next = append(next, po)
				} else {
					roots = append(roots, ref.Parent)
				}
			}
		}
		frontier = next
	}
	return roots, nil
}

// level returns n such that a is a level-n component of b (the shortest
// composite path from b to a, §2.2), or -1 when a is not a component of
// b. Both objects must exist.
func (r reader) level(a, b uid.UID) (int, error) {
	start, err := r.src.fetch(a)
	if err != nil {
		return -1, err
	}
	if _, err := r.src.fetch(b); err != nil {
		return -1, err
	}
	seen := newVisited(a)
	frontier := []*object.Object{start}
	for n := 1; len(frontier) > 0; n++ {
		var next []*object.Object
		for _, o := range frontier {
			for _, ref := range o.Reverse() {
				if ref.Parent == b {
					return n, nil
				}
				if !seen.add(ref.Parent) {
					continue
				}
				po, err := r.src.fetch(ref.Parent)
				if err == nil {
					next = append(next, po)
				}
			}
		}
		frontier = next
	}
	return -1, nil
}

// componentOf is (component-of a b): a is a direct or indirect component
// of b. It searches up from a over the reverse references, as §3.2
// suggests, rather than down b's components.
func (r reader) componentOf(a, b uid.UID) (bool, error) {
	if a == b {
		_, err := r.src.fetch(a)
		return false, err
	}
	n, err := r.level(a, b)
	return n > 0, err
}

// childOf is (child-of a b): a is a direct component of b.
func (r reader) childOf(a, b uid.UID) (bool, error) {
	o, err := r.src.fetch(a)
	if err != nil {
		return false, err
	}
	if _, err := r.src.fetch(b); err != nil {
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
	o, err := r.src.fetch(a)
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
	o, err := r.src.fetch(id)
	if err != nil {
		return PartitionSets{}, err
	}
	return PartitionSets{IX: o.IX(), DX: o.DX(), IS: o.IS(), DS: o.DS()}, nil
}
