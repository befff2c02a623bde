package core

import (
	"errors"
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

// setAttrLocked assigns v to attribute name of o, running composite
// bookkeeping for every reference gained or lost. Caller holds e.mu.
func (e *Engine) setAttrLocked(o *object.Object, name string, v value.Value, dirty *dirtySet) error {
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
		dirty.add(o.UID())
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
	// Validate every addition and resolve every removal before mutating
	// anything, so a failing reference leaves the graph untouched.
	children := make([]*object.Object, len(added))
	for i, r := range added {
		child, err := e.get(r)
		if err != nil {
			return err
		}
		if r == o.UID() {
			return fmt.Errorf("core: %v cannot be a component of itself: %w", r, ErrTopologyViolation)
		}
		if err := makeComponentCheck(child, spec); err != nil {
			return err
		}
		children[i] = child
	}
	dropped := make([]*object.Object, 0, len(removed))
	for _, r := range removed {
		child, err := e.get(r)
		if err != nil {
			if errors.Is(err, ErrNoObject) {
				continue // dropping a dangling reference is always fine
			}
			return err
		}
		dropped = append(dropped, child)
	}
	for _, child := range dropped {
		child.RemoveReverse(o.UID())
		dirty.add(child.UID())
	}
	for _, child := range children {
		linkChild(child, o.UID(), spec)
		dirty.add(child.UID())
	}
	o.Set(name, v)
	dirty.add(o.UID())
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
	e.mu.Lock()
	o, err := e.get(id)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	dirty := newDirtySet()
	if err := e.setAttrLocked(o, attr, v, dirty); err != nil {
		e.mu.Unlock()
		return err
	}
	e.noteWritesLocked(tx, dirty, nil)
	e.mu.Unlock()
	return e.writeThrough(tx, dirty, uid.Nil, uid.Nil, nil)
}

// attachLocked makes child a part of parent through attr, implementing
// the algorithm of §2.4:
//
//  1. Access object O (the child).
//  2. If (A is shared and the X flag is set in some reverse reference of
//     O) or (A is exclusive and O has any reverse reference), error.
//  3. Insert in O a reverse composite reference to O' with the D flag set
//     if A is dependent and the X flag set if A is exclusive.
//
// For a weak (non-composite) reference attribute, only the forward value
// is updated. Caller holds e.mu.
func (e *Engine) attachLocked(parent uid.UID, attr string, childID uid.UID, dirty *dirtySet) error {
	return e.attachCheckedLocked(parent, attr, childID, dirty, makeComponentCheck)
}

// attachCheckedLocked is attachLocked with a custom (or nil = disabled)
// Make-Component validation.
func (e *Engine) attachCheckedLocked(parent uid.UID, attr string, childID uid.UID, dirty *dirtySet,
	check func(child *object.Object, spec schema.AttrSpec) error) error {
	po, err := e.get(parent)
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
	child, err := e.get(childID)
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
		dirty.add(childID)
	}
	if spec.SetOf {
		if cur.IsNil() {
			cur = value.SetOf()
		}
		po.Set(attr, cur.WithRef(childID))
	} else {
		po.Set(attr, value.Ref(childID))
	}
	dirty.add(parent)
	e.o.attaches.Inc()
	if tr := e.o.tr; tr.Active() {
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
	e.mu.Lock()
	if e.legacy {
		e.mu.Unlock()
		return fmt.Errorf("core: attach of existing object %v (bottom-up creation): %w", child, ErrLegacyRestriction)
	}
	dirty := newDirtySet()
	if err := e.attachLocked(parent, attr, child, dirty); err != nil {
		e.mu.Unlock()
		return err
	}
	e.noteWritesLocked(tx, dirty, nil)
	e.mu.Unlock()
	return e.writeThrough(tx, dirty, uid.Nil, uid.Nil, nil)
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
	e.mu.Lock()
	dirty := newDirtySet()
	if err := e.attachCheckedLocked(parent, attr, child, dirty, check); err != nil {
		e.mu.Unlock()
		return err
	}
	e.noteWritesLocked(tx, dirty, nil)
	e.mu.Unlock()
	return e.writeThrough(tx, dirty, uid.Nil, uid.Nil, nil)
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
	dirty, err := e.detachLocked(tx, parent, attr, child)
	if err != nil {
		return err
	}
	return e.writeThrough(tx, dirty, uid.Nil, uid.Nil, nil)
}

// detachLocked performs the unlink under the exclusive latch and notes
// the write set for tx.
func (e *Engine) detachLocked(tx TxnID, parent uid.UID, attr string, child uid.UID) (*dirtySet, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.legacy {
		return nil, fmt.Errorf("core: detach of %v (component re-use): %w", child, ErrLegacyRestriction)
	}
	po, err := e.get(parent)
	if err != nil {
		return nil, err
	}
	pcl, err := e.cat.ClassByID(po.Class())
	if err != nil {
		return nil, err
	}
	spec, err := e.cat.Attribute(pcl.Name, attr)
	if err != nil {
		return nil, err
	}
	cur := po.Get(attr)
	if !cur.ContainsRef(child) {
		return nil, fmt.Errorf("core: %v.%s does not reference %v: %w", parent, attr, child, ErrNotReferenced)
	}
	dirty := newDirtySet()
	po.Set(attr, cur.WithoutRef(child))
	dirty.add(parent)
	if spec.Composite {
		if co, err := e.get(child); err == nil {
			co.RemoveReverse(parent)
			dirty.add(child)
		}
	}
	e.o.detaches.Inc()
	if tr := e.o.tr; tr.Active() {
		tr.Point(0, "core.detach", obs.F("parent", parent), obs.F("attr", attr), obs.F("child", child))
	}
	e.noteWritesLocked(tx, dirty, nil)
	return dirty, nil
}
