package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/uid"
)

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

// View answers reads over one source (see traverse.go): the committed
// heads, a transaction's overlay over them, or a snapshot's version
// chains. The Engine embeds the heads view and a Snapshot its own;
// TxView makes a transaction's. Objects a view returns are read-only.
type View struct {
	e    *Engine
	tx   TxnID     // read tx's overlay before the heads (0: heads only)
	snap *Snapshot // non-nil: the snapshot's chains, lock-free
}

// TxView returns transaction tx's view: the objects it wrote, as it wrote
// them, over the committed heads. TxView(0) is the heads view.
func (e *Engine) TxView(tx TxnID) View { return View{e: e, tx: tx} }

// Wrote reports whether transaction tx has written anything: whether its
// view can differ from the heads.
func (e *Engine) Wrote(tx TxnID) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.overlays[tx]) > 0
}

// headSource is the committed heads as a walk source, read through a
// transaction's overlay first when ov is set. A head that deferred schema
// changes (§4.3) still apply to is converted on a private copy as it is
// fetched; an overlay copy, private already, is converted in place. The
// caller holds e.mu at least shared.
type headSource struct {
	e    *Engine
	ov   overlay
	pend pending
	prof *obs.ProfCtx
}

func (e *Engine) headSource(tx TxnID, prof *obs.ProfCtx) *headSource {
	return &headSource{e: e, ov: e.overlays[tx], pend: e.pending(), prof: prof}
}

func (s *headSource) object(id uid.UID) *object.Object {
	o, private := s.ov[id]
	if !private {
		o = s.e.head(id)
	}
	if o == nil {
		return nil
	}
	if s.pend.on(o) {
		if !private {
			o = o.Clone()
		}
		s.e.convert(o)
	}
	s.prof.ObjectVisited()
	return o
}

func (s *headSource) fetch(id uid.UID) (*object.Object, error) { return found(id, s.object(id)) }

// found is o, or an ErrNoObject for id when o is nil.
func found(id uid.UID, o *object.Object) (*object.Object, error) {
	if o == nil {
		return nil, fmt.Errorf("%v: %w", id, ErrNoObject)
	}
	return o, nil
}

// read runs fn over the view's source, with a pooled walk scratch that
// it returns on every path out. The heads and the overlays are read
// under the shared latch: publication takes it exclusively, so the read
// is an implicit snapshot at the clock. A snapshot reads lock-free.
// prof receives the objects visited (a snapshot uses its own, SetProf).
func read[T any](v View, prof *obs.ProfCtx, fn func(r reader) (T, error)) (T, error) {
	w := getWalk()
	defer w.release()
	if s := v.snap; s != nil {
		return fn(s.e.reader(s, s.cat, w))
	}
	e := v.e
	e.mu.RLock()
	defer e.mu.RUnlock()
	w.heads = headSource{e: e, ov: e.overlays[v.tx], pend: e.pending(), prof: prof}
	return fn(e.reader(&w.heads, e.cat, w))
}

// observeQuery times a traversal query and writes its op record, with
// its UID rendered once, plus a span around it while tracing is on. It
// is entered whenever a recorder is bound; only a nil registry skips it,
// and with it the time.Now pair.
func (e *Engine) observeQuery(op string, id uid.UID, prof *obs.ProfCtx, run func() ([]uid.UID, error)) ([]uid.UID, error) {
	start := time.Now()
	var sp uint64
	if tr := e.o.rec; tr.Active() {
		sp = tr.Begin(0, op, obs.F("uid", id))
	}
	out, err := run()
	d := time.Since(start)
	e.o.traversalNs.Observe(int64(d))
	if tr := e.o.rec; tr.Active() {
		tr.End(sp, op, obs.F("results", len(out)))
	}
	outcome := "ok"
	if err != nil {
		outcome = "err"
	}
	e.o.rec.Op(op, id.String(), start, d, outcome, prof.TopCosts())
	return out, err
}

// ComponentsOf implements (components-of Object ...): the objects directly
// or indirectly referenced from the object via composite references, in
// BFS order (so level-n components appear before level-n+1 components,
// where the level of a component is the length of the shortest composite
// path from the object, §2.2).
func (v View) ComponentsOf(id uid.UID, q QueryOpts) ([]uid.UID, error) {
	run := func() ([]uid.UID, error) {
		return read(v, q.Prof, func(r reader) ([]uid.UID, error) { return r.components(id, q) })
	}
	if v.e.o.rec != nil {
		return v.e.observeQuery("components-of", id, q.Prof, run)
	}
	return run()
}

// ParentsOf implements (parents-of Object ...): the objects holding direct
// composite references to the object, read from its reverse composite
// references (§2.4).
func (v View) ParentsOf(id uid.UID, q QueryOpts) ([]uid.UID, error) {
	return read(v, q.Prof, func(r reader) ([]uid.UID, error) { return r.parents(id, q) })
}

// AncestorsOf implements (ancestors-of Object ...): the transitive closure
// of ParentsOf, in BFS order.
func (v View) AncestorsOf(id uid.UID, q QueryOpts) ([]uid.UID, error) {
	run := func() ([]uid.UID, error) {
		return read(v, q.Prof, func(r reader) ([]uid.UID, error) { return r.ancestors(id, q) })
	}
	if v.e.o.rec != nil {
		return v.e.observeQuery("ancestors-of", id, q.Prof, run)
	}
	return run()
}

// ComponentOf implements (component-of Object1 Object2): true when a is a
// direct or indirect component of b.
func (v View) ComponentOf(a, b uid.UID) (bool, error) {
	return read(v, nil, func(r reader) (bool, error) { return r.componentOf(a, b) })
}

// ChildOf implements (child-of Object1 Object2): true when a is a direct
// component of b.
func (v View) ChildOf(a, b uid.UID) (bool, error) {
	return read(v, nil, func(r reader) (bool, error) { return r.childOf(a, b) })
}

// ExclusiveComponentOf implements (exclusive-component-of Object1
// Object2): true when a is a component of b held through an exclusive
// composite reference; Nil (false) when a is not a component at all or is
// a shared component (§3.2).
func (v View) ExclusiveComponentOf(a, b uid.UID) (bool, error) {
	return read(v, nil, func(r reader) (bool, error) { return r.componentHeld(a, b, true) })
}

// SharedComponentOf implements (shared-component-of Object1 Object2): true
// when a is a shared component of b. As §3.2 observes, it is equivalent to
// component-of followed by a negative exclusive-component-of.
func (v View) SharedComponentOf(a, b uid.UID) (bool, error) {
	return read(v, nil, func(r reader) (bool, error) { return r.componentHeld(a, b, false) })
}

// LevelOf returns n such that a is a level-n component of b (the shortest
// path from b to a counted in composite references, §2.2), or -1 when a is
// not a component of b.
func (v View) LevelOf(a, b uid.UID) (int, error) {
	return read(v, nil, func(r reader) (int, error) { return r.level(a, b) })
}

// RootsOf returns the roots of the composite objects containing id: the
// ancestors of id (or id itself) that have no composite parents. The
// system needs this for locking and authorization (§2.4), and because
// bottom-up creation lets roots change, it is computed, never cached.
func (v View) RootsOf(id uid.UID) ([]uid.UID, error) {
	return read(v, nil, func(r reader) ([]uid.UID, error) { return r.roots(id) })
}

// Partitions returns the partition sets IX/DX/IS/DS of Definition 1
// (§2.2) for the object, from its reverse composite references.
func (v View) Partitions(id uid.UID) (PartitionSets, error) {
	return read(v, nil, func(r reader) (PartitionSets, error) { return r.partitions(id) })
}

// Get returns the object as the view sees it, read-only. From the heads
// (Engine.Get) it is the committed version itself, the record a snapshot
// begun now would return, unless deferred schema changes pend on it;
// those are applied to a private copy.
func (v View) Get(id uid.UID) (*object.Object, error) {
	return read(v, nil, func(r reader) (*object.Object, error) { return r.fetch(id) })
}

// Exists reports whether the view sees the object.
func (v View) Exists(id uid.UID) bool {
	_, err := v.Get(id)
	return err == nil
}

// Describe renders the object with its class name, for the figures tool.
func (v View) Describe(id uid.UID) (string, error) {
	return read(v, nil, func(r reader) (string, error) {
		o, err := r.fetch(id)
		if err != nil {
			return "", err
		}
		cl, err := r.cat.ClassByID(id.Class)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %s", cl.Name, o), nil
	})
}
