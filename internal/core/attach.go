package core

import (
	"fmt"

	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

// makeComponentCheck enforces the Make-Component Rule (§2.2):
//
//  1. If A is an exclusive composite attribute, O must not already have
//     any composite reference to it (exclusive or shared).
//  2. If A is a shared composite attribute, O must not already have an
//     exclusive composite reference.
//
// Together with the insertion below this maintains Topology Rules 1–3.
func makeComponentCheck(child *object.Object, spec schema.AttrSpec) error {
	if spec.Exclusive {
		if child.HasAnyReverse() {
			return fmt.Errorf("core: %v already has a composite parent; cannot add exclusive reference: %w",
				child.UID(), ErrTopologyViolation)
		}
		return nil
	}
	if child.HasExclusiveReverse() {
		return fmt.Errorf("core: %v has an exclusive composite parent; cannot add shared reference: %w",
			child.UID(), ErrTopologyViolation)
	}
	return nil
}

// linkChild records the composite reference in the child's reverse list.
func linkChild(child *object.Object, parent uid.UID, spec schema.AttrSpec) {
	child.AddReverse(object.ReverseRef{
		Parent:    parent,
		Dependent: spec.Dependent,
		Exclusive: spec.Exclusive,
	})
}

// setAttr assigns v to attribute name of o (the operation's own copy),
// running composite bookkeeping for every reference gained or lost.
func (w *op) setAttr(o *object.Object, name string, v value.Value) error {
	e := w.e
	cl, err := e.cat.ClassByID(o.Class())
	if err != nil {
		return err
	}
	spec, err := e.cat.Attribute(cl.Name, name)
	if err != nil {
		return err
	}
	if err := e.cat.ValidateValue(cl.Name, name, v); err != nil {
		return err
	}
	if !spec.Composite {
		o.Set(name, v)
		w.dirty.Add(o.UID())
		return nil
	}
	// Composite attribute: diff the referenced sets.
	oldRefs := uid.NewSet(o.Get(name).Refs(nil)...)
	newRefs := uid.NewSet(v.Refs(nil)...)
	var added, removed []uid.UID
	for _, r := range newRefs.Slice() {
		if !oldRefs.Contains(r) {
			added = append(added, r)
		}
	}
	for _, r := range oldRefs.Slice() {
		if !newRefs.Contains(r) {
			removed = append(removed, r)
		}
	}
	if e.legacy && len(added) > 0 {
		return fmt.Errorf("core: assembling existing objects through %s.%s (bottom-up creation): %w",
			cl.Name, name, ErrLegacyRestriction)
	}
	for _, r := range added {
		if r == o.UID() {
			return fmt.Errorf("core: %v cannot be a component of itself: %w", r, ErrTopologyViolation)
		}
		child, err := w.get(r)
		if err != nil {
			return err
		}
		if err := makeComponentCheck(child, spec); err != nil {
			return err
		}
		linkChild(child, o.UID(), spec)
		w.dirty.Add(r)
	}
	for _, r := range removed {
		child, err := w.get(r)
		if err != nil {
			continue // dropping a dangling reference is always fine
		}
		child.RemoveReverse(o.UID())
		w.dirty.Add(r)
	}
	o.Set(name, v)
	w.dirty.Add(o.UID())
	return nil
}

// Set assigns v to attribute attr of the object, enforcing domain
// validation and, for composite attributes, the Make-Component Rule on
// every newly referenced object (and unlinking every dropped one).
func (e *Engine) Set(id uid.UID, attr string, v value.Value) error {
	return e.SetTx(0, id, attr, v)
}

// SetTx is Set tagged with the transaction performing the update.
func (e *Engine) SetTx(tx TxnID, id uid.UID, attr string, v value.Value) error {
	_, err := e.write(tx, func(w *op) ([]uid.UID, error) {
		o, err := w.get(id)
		if err != nil {
			return nil, err
		}
		return nil, w.setAttr(o, attr, v)
	})
	return err
}

// attach makes child a part of parent through attr, implementing the
// algorithm of §2.4:
//
//  1. Access object O (the child).
//  2. If (A is shared and the X flag is set in some reverse reference of
//     O) or (A is exclusive and O has any reverse reference), error.
//  3. Insert in O a reverse composite reference to O' with the D flag set
//     if A is dependent and the X flag set if A is exclusive.
//
// Step 2 is check, the Make-Component validation (nil = disabled). For a
// weak (non-composite) reference attribute, only the forward value is
// updated.
func (w *op) attach(parent uid.UID, attr string, childID uid.UID,
	check func(child *object.Object, spec schema.AttrSpec) error) error {
	e := w.e
	po, err := w.get(parent)
	if err != nil {
		return err
	}
	if parent == childID {
		return fmt.Errorf("core: %v cannot be a component of itself: %w", parent, ErrTopologyViolation)
	}
	pcl, err := e.cat.ClassByID(po.Class())
	if err != nil {
		return err
	}
	spec, err := e.cat.Attribute(pcl.Name, attr)
	if err != nil {
		return err
	}
	child, err := w.get(childID)
	if err != nil {
		return err
	}
	if spec.Domain.Kind != schema.DomainClass {
		return fmt.Errorf("core: %s.%s has primitive domain %s: %w",
			pcl.Name, attr, spec.Domain, schema.ErrDomainMismatch)
	}
	ccl, err := e.cat.ClassByID(child.Class())
	if err != nil {
		return err
	}
	if !e.cat.IsA(ccl.Name, spec.Domain.Class) {
		return fmt.Errorf("core: %s.%s wants %s, got instance of %s: %w",
			pcl.Name, attr, spec.Domain.Class, ccl.Name, schema.ErrDomainMismatch)
	}
	if e.legacy && spec.Composite && spec.RefKind() != schema.DependentExclusive {
		return fmt.Errorf("core: %s.%s is a %s reference; the legacy model supports only dependent exclusive: %w",
			pcl.Name, attr, spec.RefKind(), ErrLegacyRestriction)
	}
	// Forward value update.
	cur := po.Get(attr)
	if cur.ContainsRef(childID) {
		return nil // already attached through this attribute
	}
	if !spec.SetOf && !cur.IsNil() {
		return fmt.Errorf("core: %s.%s of %v already references %v: %w",
			pcl.Name, attr, parent, cur, ErrAttrOccupied)
	}
	if spec.Composite {
		if check != nil {
			if err := check(child, spec); err != nil {
				return err
			}
		}
		linkChild(child, parent, spec)
		w.dirty.Add(childID)
	}
	if spec.SetOf {
		if cur.IsNil() {
			cur = value.SetOf()
		}
		po.Set(attr, cur.WithRef(childID))
	} else {
		po.Set(attr, value.Ref(childID))
	}
	w.dirty.Add(parent)
	e.o.attaches.Inc()
	if tr := e.o.rec; tr.Active() {
		tr.Point(0, "core.attach", obs.F("parent", parent), obs.F("attr", attr), obs.F("child", childID),
			obs.F("ref", spec.RefKind()))
	}
	return nil
}

// Attach makes the existing object child a part of parent through attr —
// the bottom-up assembly the extended model adds (§1, shortcoming 2). It
// is rejected in legacy mode, where components can only come into
// existence under their parent.
func (e *Engine) Attach(parent uid.UID, attr string, child uid.UID) error {
	return e.AttachTx(0, parent, attr, child)
}

// AttachTx is Attach tagged with the transaction performing the link.
func (e *Engine) AttachTx(tx TxnID, parent uid.UID, attr string, child uid.UID) error {
	_, err := e.write(tx, func(w *op) ([]uid.UID, error) {
		if e.legacy {
			return nil, fmt.Errorf("core: attach of existing object %v (bottom-up creation): %w", child, ErrLegacyRestriction)
		}
		return nil, w.attach(parent, attr, child, makeComponentCheck)
	})
	return err
}

// AttachWithCheck is Attach with a caller-supplied Make-Component
// validation replacing the default one. The version layer needs this for
// Rule CV-2X (§5.2): a *generic* instance may carry several exclusive
// composite references as long as they all come from the same
// version-derivation hierarchy, which the default check would reject.
// Passing a nil check skips validation entirely (caller takes full
// responsibility for the topology rules).
func (e *Engine) AttachWithCheck(parent uid.UID, attr string, child uid.UID,
	check func(child *object.Object, spec schema.AttrSpec) error) error {
	return e.AttachWithCheckTx(0, parent, attr, child, check)
}

// AttachWithCheckTx is AttachWithCheck tagged with the transaction
// performing the link.
func (e *Engine) AttachWithCheckTx(tx TxnID, parent uid.UID, attr string, child uid.UID,
	check func(child *object.Object, spec schema.AttrSpec) error) error {
	_, err := e.write(tx, func(w *op) ([]uid.UID, error) {
		return nil, w.attach(parent, attr, child, check)
	})
	return err
}

// Detach removes the reference from parent.attr to child, unlinking the
// reverse composite reference if the attribute is composite. The child
// survives: under the extended model removing a reference never deletes
// (only Delete applies the Deletion Rule), which is what permits
// dismantling a vehicle and re-using its parts (Example 1, §2.3).
func (e *Engine) Detach(parent uid.UID, attr string, child uid.UID) error {
	return e.DetachTx(0, parent, attr, child)
}

// DetachTx is Detach tagged with the transaction performing the unlink.
func (e *Engine) DetachTx(tx TxnID, parent uid.UID, attr string, child uid.UID) error {
	_, err := e.write(tx, func(w *op) ([]uid.UID, error) {
		return nil, w.detach(parent, attr, child)
	})
	return err
}

// detach performs the unlink.
func (w *op) detach(parent uid.UID, attr string, child uid.UID) error {
	e := w.e
	if e.legacy {
		return fmt.Errorf("core: detach of %v (component re-use): %w", child, ErrLegacyRestriction)
	}
	po, err := w.get(parent)
	if err != nil {
		return err
	}
	pcl, err := e.cat.ClassByID(po.Class())
	if err != nil {
		return err
	}
	spec, err := e.cat.Attribute(pcl.Name, attr)
	if err != nil {
		return err
	}
	cur := po.Get(attr)
	if !cur.ContainsRef(child) {
		return fmt.Errorf("core: %v.%s does not reference %v: %w", parent, attr, child, ErrNotReferenced)
	}
	po.Set(attr, cur.WithoutRef(child))
	w.dirty.Add(parent)
	if spec.Composite {
		if co, err := w.get(child); err == nil {
			co.RemoveReverse(parent)
			w.dirty.Add(child)
		}
	}
	e.o.detaches.Inc()
	if tr := e.o.rec; tr.Active() {
		tr.Point(0, "core.detach", obs.F("parent", parent), obs.F("attr", attr), obs.F("child", child))
	}
	return nil
}
