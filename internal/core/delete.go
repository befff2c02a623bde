package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/uid"
	"repro/internal/value"
)

// Delete removes the object, applying the Deletion Rule (§2.2):
//
//	del(O') => del(O) if any of:
//	 1. O' has a dependent exclusive reference to O;
//	 2. O' has a dependent shared reference to O and DS(O) = {O'};
//	 3. an object O'' with del(O') => del(O'') exists such that (3.a) O''
//	    has a dependent exclusive reference to O, or (3.b) O'' has a
//	    dependent shared reference to O and DS(O) = {O''}.
//
// Condition 3 is the recursive case, handled by cascading. Independent
// references (exclusive or shared) never propagate deletion; the
// referenced components merely lose this parent. The forward references
// held by surviving parents of every deleted object are removed; weak
// references from unrelated objects are left dangling, as in ORION.
//
// It returns the UIDs actually deleted, in UID order.
func (e *Engine) Delete(id uid.UID) ([]uid.UID, error) {
	return e.DeleteTx(0, id)
}

// DeleteTx is Delete tagged with the transaction performing the removal;
// every WAL record of the cascade (surviving-parent rewrites and the
// per-casualty deletes) carries the tag, so replay applies the cascade
// atomically or not at all. Survivor rewrites are written through first,
// then the casualty deletes: replaying the log must not resurrect a
// reference to an object whose delete record precedes it.
func (e *Engine) DeleteTx(tx TxnID, id uid.UID) ([]uid.UID, error) {
	return e.write(tx, func(w *op) ([]uid.UID, error) {
		if w.peek(id) == nil {
			return nil, fmt.Errorf("%v: %w", id, ErrNoObject)
		}
		start := time.Now()
		var sp uint64
		if tr := e.o.tr; tr.Active() {
			sp = tr.Begin(0, "core.delete", obs.F("uid", id))
		}
		deleted := uid.NewSet()
		w.delete(id, deleted, sp)
		n := deleted.Len()
		e.o.deletes.Inc()
		if n > 1 {
			e.o.deleteCascaded.Add(uint64(n - 1))
		}
		dur := time.Since(start)
		e.o.deleteNs.Observe(int64(dur))
		if e.o.slow.Active() {
			e.o.slow.Observe("core.delete", dur, fmt.Sprintf("%v cascade=%d", id, n-1))
		}
		if tr := e.o.tr; tr.Active() {
			tr.End(sp, "core.delete", obs.F("deleted", n))
		}
		return append([]uid.UID(nil), deleted.Slice()...), nil
	})
}

// delete removes id and cascades. deleted accumulates the casualty list
// and doubles as the visited set for cyclic part hierarchies. span is the
// enclosing trace span (0 when tracing is off); each cascaded object
// opens a nested core.delete.object span under it, so a trace dump
// reconstructs the cascade tree exactly.
func (w *op) delete(id uid.UID, deleted *uid.Set, span uint64) {
	if deleted.Contains(id) {
		return
	}
	o := w.peek(id) // converted: the flags consulted below are current
	if o == nil {
		return
	}
	deleted.Add(id)
	e := w.e
	if tr := e.o.tr; tr.Active() {
		span = tr.Begin(span, "core.delete.object", obs.F("uid", id))
		defer tr.End(span, "core.delete.object")
	}
	// A class dropped out from under the instance has no attributes to
	// cascade through; the instance is just unlinked.
	if cl, err := e.cat.ClassByID(id.Class); err == nil {
		attrs, _ := e.cat.Attributes(cl.Name)
		for _, spec := range attrs {
			if !spec.Composite {
				continue
			}
			for _, childID := range o.Get(spec.Name).Refs(nil) {
				w.reap(id, childID, spec.Dependent, spec.Exclusive, deleted, span)
			}
		}
	}
	// Remove forward references to id from its surviving composite parents.
	w.unlinkFromParents(id, o, deleted)
	w.remove(id)
}

// reapRule classifies one severed reference for the trace: which clause
// of the Deletion Rule fired, or why the child survived. The last-parent
// case (Rule 2) gets its own label so traces distinguish "deleted
// because dependent exclusive" from "deleted because the last
// dependent-shared parent died".
func reapRule(dependent, exclusive, lastDS bool) string {
	switch {
	case dependent && exclusive:
		return "cascade-dependent-exclusive"
	case dependent && lastDS:
		return "cascade-last-ds-parent"
	case dependent:
		return "survives-ds-parents-remain"
	default:
		return "survives-independent"
	}
}

// reap removes the reverse reference from childID to parent and
// cascades deletion per the Deletion Rule given the (dependent, exclusive)
// flags of the severed reference. A child that dies with its deleted
// parent is not copied: the reference goes with it. span is the deleting
// parent's trace span.
func (w *op) reap(parent, childID uid.UID, dependent, exclusive bool, deleted *uid.Set, span uint64) {
	if deleted.Contains(childID) {
		return
	}
	child := w.peek(childID)
	if child == nil {
		return
	}
	lastDS := !slices.ContainsFunc(child.DS(), func(p uid.UID) bool { return p != parent })
	if tr := w.e.o.tr; tr.Active() {
		tr.Point(span, "core.delete.reap", obs.F("child", childID),
			obs.F("rule", reapRule(dependent, exclusive, lastDS)))
	}
	// Rule 1 (dependent exclusive) or Rule 2 (last dependent-shared
	// parent is gone).
	dies := dependent && (exclusive || lastDS)
	if !dies || !deleted.Contains(parent) {
		child, _ = w.get(childID)
		child.RemoveReverse(parent)
		w.dirty.Add(childID)
	}
	if dies {
		w.delete(childID, deleted, span)
	}
}

// unlinkFromParents strips forward references to id (whose state is o)
// from every surviving composite parent of id.
func (w *op) unlinkFromParents(id uid.UID, o *object.Object, deleted *uid.Set) {
	for _, r := range o.Reverse() {
		if deleted.Contains(r.Parent) {
			continue
		}
		p, err := w.get(r.Parent)
		if err != nil {
			continue
		}
		var hits []string
		p.Each(func(name string, v value.Value) {
			if v.ContainsRef(id) {
				hits = append(hits, name)
			}
		})
		for _, name := range hits {
			p.Set(name, p.Get(name).WithoutRef(id))
		}
		w.dirty.Add(r.Parent)
	}
}

// TopologyViolation describes one broken invariant found by CheckTopology
// or Integrity.
type TopologyViolation struct {
	Object uid.UID
	Rule   string
}

func (v TopologyViolation) String() string {
	return fmt.Sprintf("%v: %s", v.Object, v.Rule)
}

// CheckTopology verifies Topology Rules 1–3 (§2.2) plus reverse/forward
// consistency for one object, returning every violation found. The
// operational checks make violations unreachable through the public API;
// this is the oracle the property tests use.
func (e *Engine) CheckTopology(id uid.UID) []TopologyViolation {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.checkTopology(e.headSource(0, nil), id)
}

func (e *Engine) checkTopology(src *headSource, id uid.UID) []TopologyViolation {
	var out []TopologyViolation
	o, err := src.fetch(id)
	if err != nil {
		return []TopologyViolation{{id, "object does not exist"}}
	}
	ix, dx := len(o.IX()), len(o.DX())
	is, ds := len(o.IS()), len(o.DS())
	if ix > 1 {
		out = append(out, TopologyViolation{id, fmt.Sprintf("rule 1: card(IX)=%d > 1", ix)})
	}
	if dx > 1 {
		out = append(out, TopologyViolation{id, fmt.Sprintf("rule 1: card(DX)=%d > 1", dx)})
	}
	if ix >= 1 && dx >= 1 {
		out = append(out, TopologyViolation{id, "rule 2: both IX and DX references present"})
	}
	if (ix >= 1 || dx >= 1) && (is >= 1 || ds >= 1) {
		out = append(out, TopologyViolation{id, "rule 3: exclusive and shared references mixed"})
	}
	// Reverse references must be mirrored by a forward composite reference
	// with the same flags. Reverse composite *generic* references (§5.3,
	// Count > 0) summarize version-level references and have no forward
	// mirror of their own; they are exempt.
	for _, r := range o.Reverse() {
		if r.Count > 0 {
			continue
		}
		p, err := src.fetch(r.Parent)
		if err != nil {
			out = append(out, TopologyViolation{id, fmt.Sprintf("reverse ref to missing parent %v", r.Parent)})
			continue
		}
		pcl, err := e.cat.ClassByID(p.Class())
		if err != nil {
			out = append(out, TopologyViolation{id, fmt.Sprintf("parent %v has unknown class", r.Parent)})
			continue
		}
		found := false
		attrs, _ := e.cat.Attributes(pcl.Name)
		for _, spec := range attrs {
			if !spec.Composite || !p.Get(spec.Name).ContainsRef(id) {
				continue
			}
			if spec.Dependent == r.Dependent && spec.Exclusive == r.Exclusive {
				found = true
				break
			}
		}
		if !found {
			out = append(out, TopologyViolation{id, fmt.Sprintf("reverse ref %v not mirrored by a matching forward reference", r)})
		}
	}
	return out
}

// Integrity verifies the whole committed graph: topology rules on every
// object, every forward composite reference mirrored by a reverse
// reference, and no composite reference dangling. It returns all
// violations (dangling weak references are permitted, as in ORION, and
// not reported).
func (e *Engine) Integrity() []TopologyViolation {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var ids []uid.UID
	for _, ext := range e.extents {
		ids = append(ids, ext.Slice()...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	src := e.headSource(0, nil)
	var out []TopologyViolation
	for _, id := range ids {
		out = append(out, e.checkTopology(src, id)...)
		o, err := src.fetch(id)
		if err != nil {
			continue
		}
		cl, err := e.cat.ClassByID(id.Class)
		if err != nil {
			out = append(out, TopologyViolation{id, "unknown class"})
			continue
		}
		attrs, err := e.cat.Attributes(cl.Name)
		if err != nil {
			continue
		}
		for _, spec := range attrs {
			if !spec.Composite {
				continue
			}
			for _, r := range o.Get(spec.Name).Refs(nil) {
				child, err := src.fetch(r)
				if err != nil {
					out = append(out, TopologyViolation{id, fmt.Sprintf("composite reference %s -> %v dangles", spec.Name, r)})
					continue
				}
				if !child.HasReverse(id) {
					out = append(out, TopologyViolation{id, fmt.Sprintf("composite reference %s -> %v lacks a reverse reference", spec.Name, r)})
				}
			}
		}
	}
	return out
}
