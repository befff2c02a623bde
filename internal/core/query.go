package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/uid"
)

// errStaleCC signals, on the read-locked fast path, that deferred schema
// changes (§4.3) pend on an object the query touched. Applying them
// mutates the object, which the read lock forbids; the caller retries the
// whole operation under the write lock, where get applies them.
var errStaleCC = errors.New("core: deferred schema changes pending")

// ErrDangling reports a composite reference to a missing object, surfaced
// by queries run with QueryOpts.Strict. A dangling composite reference is
// an integrity violation (unlike weak references, which ORION lets
// dangle); the lenient default skips it, as the paper's implementation
// does.
var ErrDangling = errors.New("core: dangling composite reference")

// QueryOpts carries the optional arguments of the §3.1 messages:
//
//	(components-of Object [ListofClasses] [Exclusive] [Shared] [Level])
//	(parents-of    Object [ListofClasses] [Exclusive] [Shared])
//	(ancestors-of  Object [ListofClasses] [Exclusive] [Shared])
//
// Classes filters the returned objects to instances of the listed classes
// (subclasses included). Exclusive restricts traversal to exclusive
// composite references and Shared to shared ones; both false (or both
// true) traverses all composite references, mirroring "if both Exclusive
// and Shared are Nil, all components are retrieved". Level bounds the
// component depth (0 = unlimited); it applies to components-of only.
//
// Strict turns a dangling composite reference — forward or reverse — from
// a silent skip into an ErrDangling error. Dangling composite references
// cannot arise through the public mutation API; they appear when lower
// layers misuse Evict/Restore, and Strict is the diagnostic mode that
// surfaces that.
//
// Prof, when non-nil, receives per-operation cost attribution for this
// query: objects visited, plan-memo hits and misses. It does not change
// what the query computes.
type QueryOpts struct {
	Classes   []string
	Exclusive bool
	Shared    bool
	Level     int
	Strict    bool
	Prof      *obs.ProfCtx
}

// wantEdge reports whether an edge with the given exclusivity passes the
// Exclusive/Shared filter.
func (q QueryOpts) wantEdge(exclusive bool) bool {
	if q.Exclusive == q.Shared {
		return true
	}
	if q.Exclusive {
		return exclusive
	}
	return !exclusive
}

// liveSource is the engine's object table as a walk source (see
// traverse.go). Without write it is read under the shared latch and
// fails with errStaleCC on an object that deferred schema changes (§4.3)
// newer than its CC stamp still apply to; with write the caller holds the
// exclusive latch and get applies them.
type liveSource struct {
	e     *Engine
	write bool
	cc    uint64
	prof  *obs.ProfCtx
	// ceil memoizes, per class, the highest CC of a deferred change
	// applicable to its instances, so the staleness test costs one
	// catalog lookup per class per query.
	ceil map[uid.ClassID]uint64
}

func (s *liveSource) fetch(id uid.UID) (*object.Object, error) {
	if s.write {
		o, err := s.e.get(id)
		if err == nil {
			s.prof.ObjectVisited()
		}
		return o, err
	}
	o, ok := s.e.objects[id]
	if !ok {
		return nil, fmt.Errorf("%v: %w", id, ErrNoObject)
	}
	if o.CC() < s.cc && o.CC() < s.pendingCeiling(id.Class) {
		s.e.o.staleRetries.Inc()
		return nil, errStaleCC
	}
	s.prof.ObjectVisited()
	return o, nil
}

func (s *liveSource) pendingCeiling(c uid.ClassID) uint64 {
	if v, ok := s.ceil[c]; ok {
		return v
	}
	var v uint64
	if cl, err := s.e.cat.ClassByID(c); err == nil {
		if entries := s.e.cat.Pending(cl.Name, 0); len(entries) > 0 {
			v = entries[len(entries)-1].CC
		}
	}
	if s.ceil == nil {
		s.ceil = make(map[uid.ClassID]uint64)
	}
	s.ceil[c] = v
	return v
}

// live runs fn over the live object table without fn observing a
// concurrent mutation: under the shared latch first, and once more under
// the exclusive latch when fn met an object with deferred schema changes
// pending, which get then applies. prof receives the objects visited.
func live[T any](e *Engine, prof *obs.ProfCtx, fn func(r reader) (T, error)) (T, error) {
	e.mu.RLock()
	out, err := fn(e.reader(&liveSource{e: e, cc: e.cat.CurrentCC(), prof: prof}, e.cat))
	e.mu.RUnlock()
	if !errors.Is(err, errStaleCC) {
		return out, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return fn(e.reader(&liveSource{e: e, write: true, prof: prof}, e.cat))
}

// observeQuery wraps a traversal query with tracing, slow-path
// accounting, and a flight-recorder record. It is entered when the
// tracer or slow log is active (e.o.timed()), a flight recorder is
// bound, or the query carries a profile context; the bare path pays a
// couple of atomic loads and no time.Now calls only with a nil
// registry (the flight recorder is always-on otherwise, at the cost of
// one record per query).
func (e *Engine) observeQuery(op string, id uid.UID, prof *obs.ProfCtx, run func() ([]uid.UID, error)) ([]uid.UID, error) {
	start := time.Now()
	var sp uint64
	if tr := e.o.tr; tr.Active() {
		sp = tr.Begin(0, op, obs.F("uid", id))
	}
	out, err := run()
	d := time.Since(start)
	e.o.traversalNs.Observe(int64(d))
	if tr := e.o.tr; tr.Active() {
		tr.End(sp, op, obs.F("results", len(out)))
	}
	e.o.slow.Observe(op, d, id.String())
	if f := e.o.flight; f != nil {
		outcome := "ok"
		if err != nil {
			outcome = "err"
		}
		f.Record(op, id.String(), d, outcome, prof.TopCosts())
	}
	return out, err
}

// ComponentsOf implements (components-of Object ...): the objects directly
// or indirectly referenced from the object via composite references, in
// BFS order (so level-n components appear before level-n+1 components,
// where the level of a component is the length of the shortest composite
// path from the object, §2.2).
func (e *Engine) ComponentsOf(id uid.UID, q QueryOpts) ([]uid.UID, error) {
	run := func() ([]uid.UID, error) {
		return live(e, q.Prof, func(r reader) ([]uid.UID, error) { return r.components(id, q) })
	}
	if e.o.timed() || e.o.flight != nil {
		return e.observeQuery("components-of", id, q.Prof, run)
	}
	return run()
}

// ParentsOf implements (parents-of Object ...): the objects holding direct
// composite references to the object, read from its reverse composite
// references (§2.4).
func (e *Engine) ParentsOf(id uid.UID, q QueryOpts) ([]uid.UID, error) {
	return live(e, q.Prof, func(r reader) ([]uid.UID, error) { return r.parents(id, q) })
}

// AncestorsOf implements (ancestors-of Object ...): the transitive closure
// of ParentsOf, in BFS order.
func (e *Engine) AncestorsOf(id uid.UID, q QueryOpts) ([]uid.UID, error) {
	run := func() ([]uid.UID, error) {
		return live(e, q.Prof, func(r reader) ([]uid.UID, error) { return r.ancestors(id, q) })
	}
	if e.o.timed() || e.o.flight != nil {
		return e.observeQuery("ancestors-of", id, q.Prof, run)
	}
	return run()
}

// ComponentOf implements (component-of Object1 Object2): true when a is a
// direct or indirect component of b.
func (e *Engine) ComponentOf(a, b uid.UID) (bool, error) {
	return live(e, nil, func(r reader) (bool, error) { return r.componentOf(a, b) })
}

// ChildOf implements (child-of Object1 Object2): true when a is a direct
// component of b.
func (e *Engine) ChildOf(a, b uid.UID) (bool, error) {
	return live(e, nil, func(r reader) (bool, error) { return r.childOf(a, b) })
}

// ExclusiveComponentOf implements (exclusive-component-of Object1
// Object2): true when a is a component of b held through an exclusive
// composite reference; Nil (false) when a is not a component at all or is
// a shared component (§3.2).
func (e *Engine) ExclusiveComponentOf(a, b uid.UID) (bool, error) {
	return live(e, nil, func(r reader) (bool, error) { return r.componentHeld(a, b, true) })
}

// SharedComponentOf implements (shared-component-of Object1 Object2): true
// when a is a shared component of b. As §3.2 observes, it is equivalent to
// component-of followed by a negative exclusive-component-of.
func (e *Engine) SharedComponentOf(a, b uid.UID) (bool, error) {
	return live(e, nil, func(r reader) (bool, error) { return r.componentHeld(a, b, false) })
}

// LevelOf returns n such that a is a level-n component of b (the shortest
// path from b to a counted in composite references, §2.2), or -1 when a is
// not a component of b.
func (e *Engine) LevelOf(a, b uid.UID) (int, error) {
	return live(e, nil, func(r reader) (int, error) { return r.level(a, b) })
}

// RootsOf returns the roots of the composite objects containing id: the
// ancestors of id (or id itself) that have no composite parents. The
// system needs this for locking and authorization (§2.4), and because
// bottom-up creation lets roots change, it is computed, never cached.
func (e *Engine) RootsOf(id uid.UID) ([]uid.UID, error) {
	return live(e, nil, func(r reader) ([]uid.UID, error) { return r.roots(id) })
}

// Partitions returns the partition sets IX/DX/IS/DS of Definition 1
// (§2.2) for the object, from its reverse composite references.
func (e *Engine) Partitions(id uid.UID) (PartitionSets, error) {
	return live(e, nil, func(r reader) (PartitionSets, error) { return r.partitions(id) })
}

// Describe renders the object with its class name, for the figures tool.
func (e *Engine) Describe(id uid.UID) (string, error) {
	return live(e, nil, func(r reader) (string, error) {
		o, err := r.src.fetch(id)
		if err != nil {
			return "", err
		}
		cl, err := e.cat.ClassByID(id.Class)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %s", cl.Name, o), nil
	})
}
