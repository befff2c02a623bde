package core

import (
	"fmt"
	"sort"

	"repro/internal/schema"
	"repro/internal/uid"
)

// instancesOf returns the instances of class and its subclasses, in UID
// order. Caller holds e.mu.
func (e *Engine) instancesOf(class string) []uid.UID {
	var out []uid.UID
	for _, name := range e.cat.AllSubclasses(class) {
		cl, err := e.cat.Class(name)
		if err != nil {
			continue
		}
		out = append(out, e.extents[cl.ID].Slice()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// DropAttribute implements §4.1 change 1: drop attribute attr from class.
// Every instance of the class (and of its subclasses, which lose the
// inherited attribute) loses its value for attr; objects referenced
// through a composite attr are unlinked, and deleted in accordance with
// the Deletion Rule when the reference was dependent. It returns the UIDs
// of objects deleted by the cascade.
func (e *Engine) DropAttribute(class, attr string) ([]uid.UID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	spec, err := e.cat.DropAttribute(class, attr)
	if err != nil {
		return nil, err
	}
	deleted, err := e.dropAttrValuesLocked(class, spec)
	if err != nil {
		return nil, err
	}
	out := append([]uid.UID(nil), deleted.Slice()...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// dropAttrValuesLocked clears the value of spec from every instance of
// class (and subclasses), unlinking and reaping components. Caller holds
// e.mu and has already removed the attribute from the catalog.
func (e *Engine) dropAttrValuesLocked(class string, spec schema.AttrSpec) (*uid.Set, error) {
	dirty := newDirtySet()
	deleted := uid.NewSet()
	for _, id := range e.instancesOf(class) {
		o, ok := e.objects[id]
		if !ok || deleted.Contains(id) {
			continue
		}
		v := o.Get(spec.Name)
		if v.IsNil() {
			continue
		}
		if spec.Composite {
			for _, childID := range v.Refs(nil) {
				e.reapAfterUnlink(id, childID, spec.Dependent, spec.Exclusive, deleted, dirty, 0)
			}
		}
		if o, ok = e.objects[id]; ok { // may have died in a cyclic cascade
			o.Unset(spec.Name)
			dirty.add(id)
		}
	}
	if err := e.flush(dirty, deleted.Slice()); err != nil {
		return nil, err
	}
	return deleted, nil
}

// RemoveSuperclass implements §4.1 change 3: remove super from class's
// superclass list. Attributes the class thereby loses are dropped from its
// instances as in DropAttribute, with composite cascades. It returns the
// UIDs deleted.
func (e *Engine) RemoveSuperclass(class, super string) ([]uid.UID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	lost, err := e.cat.RemoveSuperclass(class, super)
	if err != nil {
		return nil, err
	}
	all := uid.NewSet()
	for _, spec := range lost {
		deleted, err := e.dropAttrValuesLocked(class, spec)
		if err != nil {
			return nil, err
		}
		for _, d := range deleted.Slice() {
			all.Add(d)
		}
	}
	out := append([]uid.UID(nil), all.Slice()...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// DropClass implements §4.1 change 4: delete every instance of the class
// (cascading per the Deletion Rule through its composite attributes), then
// remove the class, re-parenting its subclasses to its superclasses. It
// returns the UIDs deleted.
func (e *Engine) DropClass(class string) ([]uid.UID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.cat.CanDropClass(class); err != nil {
		return nil, err
	}
	cl, err := e.cat.Class(class)
	if err != nil {
		return nil, err
	}
	dirty := newDirtySet()
	deleted := uid.NewSet()
	for _, id := range append([]uid.UID(nil), e.extents[cl.ID].Slice()...) {
		if !deleted.Contains(id) {
			e.deleteLocked(id, deleted, dirty, 0)
		}
	}
	if err := e.flush(dirty, deleted.Slice()); err != nil {
		return nil, err
	}
	if _, err := e.cat.DropClass(class); err != nil {
		return nil, err
	}
	delete(e.extents, cl.ID)
	out := append([]uid.UID(nil), deleted.Slice()...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// RenameAttribute renames class.attr in the catalog and moves the stored
// values in every instance of the class and its subclasses. Reverse
// composite references are unaffected (they do not record the attribute
// name, §2.4).
func (e *Engine) RenameAttribute(class, attr, newName string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.cat.RenameAttribute(class, attr, newName); err != nil {
		return err
	}
	dirty := newDirtySet()
	for _, id := range e.instancesOf(class) {
		o, ok := e.objects[id]
		if !ok || !o.Has(attr) {
			continue
		}
		o.RenameAttr(attr, newName)
		dirty.add(id)
	}
	return e.flush(dirty, nil)
}

// ChangeAttributeType performs a state-independent attribute-type change
// (I1–I4 of §4.2) on class.attr. With deferred=false the reverse
// composite references of every currently referenced object are rewritten
// now (§4.3 "immediate"); with deferred=true the rewrite is logged in the
// domain class's operation log and applied when each object is next
// accessed (§4.3 "deferred").
func (e *Engine) ChangeAttributeType(class, attr string, kind schema.ChangeKind, deferred bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	entry, err := e.cat.ChangeAttributeType(class, attr, kind, deferred)
	if err != nil {
		return err
	}
	if deferred {
		return nil
	}
	// Immediate: rewrite the flags in all referenced instances. §4.3
	// describes this as accessing all instances of the domain class C; we
	// walk the forward references of the owner class's instances, which
	// touches exactly the objects whose flags can be stale.
	spec, err := e.cat.Attribute(entry.OwnerClass, attr)
	if err != nil && kind != schema.ChangeDropComposite {
		return err
	}
	dirty := newDirtySet()
	for _, pid := range e.instancesOf(entry.OwnerClass) {
		p, ok := e.objects[pid]
		if !ok {
			continue
		}
		for _, childID := range p.Get(attr).Refs(nil) {
			child, ok := e.objects[childID]
			if !ok {
				continue
			}
			switch kind {
			case schema.ChangeDropComposite:
				child.RemoveReverse(pid)
			default:
				child.SetReverseFlags(pid, spec.Dependent, spec.Exclusive)
			}
			dirty.add(childID)
		}
	}
	return e.flush(dirty, nil)
}

// MakeComposite performs the state-dependent changes D1 (weak ->
// exclusive composite) and D2 (weak -> shared composite) of §4.2: it
// verifies, for every instance of the domain class referenced through
// attr by any instance of class, that the Make-Component Rule admits the
// new reference kind, then records the new specification and inserts the
// reverse composite references. State-dependent changes can never be
// deferred (§4.3: they require immediate verification of the X flags).
func (e *Engine) MakeComposite(class, attr string, exclusive, dependent bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	spec, err := e.cat.Attribute(class, attr)
	if err != nil {
		return err
	}
	if spec.Composite {
		return fmt.Errorf("core: %s.%s is already composite: %w", class, attr, ErrChangeRejected)
	}
	if spec.Domain.Kind != schema.DomainClass {
		return fmt.Errorf("core: %s.%s has a primitive domain: %w", class, attr, ErrChangeRejected)
	}
	// Step 1: collect the referenced instances. Step 2: verify. This walk
	// is the expensive part the paper warns about ("there is no reverse
	// reference corresponding to a weak reference").
	type link struct{ parent, child uid.UID }
	var links []link
	for _, pid := range e.instancesOf(class) {
		p, ok := e.objects[pid]
		if !ok {
			continue
		}
		for _, childID := range p.Get(attr).Refs(nil) {
			links = append(links, link{pid, childID})
		}
	}
	seenChildren := uid.NewSet()
	for _, l := range links {
		child, ok := e.objects[l.child]
		if !ok {
			return fmt.Errorf("core: %v.%s dangles to %v: %w", l.parent, attr, l.child, ErrChangeRejected)
		}
		if exclusive {
			// D1: no composite references (of any kind) to the child, and
			// no two weak references through A to the same child (they
			// would become two exclusive parents).
			if child.HasAnyReverse() {
				return fmt.Errorf("core: D1 rejected, %v already has a composite parent: %w", l.child, ErrChangeRejected)
			}
			if !seenChildren.Add(l.child) {
				return fmt.Errorf("core: D1 rejected, %v is referenced through %s by more than one instance: %w", l.child, attr, ErrChangeRejected)
			}
		} else {
			// D2: Topology Rule 3 — no exclusive composite references.
			if child.HasExclusiveReverse() {
				return fmt.Errorf("core: D2 rejected, %v has an exclusive composite parent: %w", l.child, ErrChangeRejected)
			}
		}
	}
	if err := e.cat.UpdateAttributeFlags(class, attr, true, exclusive, dependent); err != nil {
		return err
	}
	dirty := newDirtySet()
	newSpec, _ := e.cat.Attribute(class, attr)
	for _, l := range links {
		linkChild(e.objects[l.child], l.parent, newSpec)
		dirty.add(l.child)
	}
	return e.flush(dirty, nil)
}

// MakeExclusive performs the state-dependent change D3 of §4.2 (shared
// composite -> exclusive composite): the change is rejected if any
// instance referenced through attr has more than one composite parent
// (§4.3: "more than one reverse composite reference, at least one from an
// instance of the class C'"); otherwise the X flag is turned on in the
// reverse references from instances of class.
func (e *Engine) MakeExclusive(class, attr string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	spec, err := e.cat.Attribute(class, attr)
	if err != nil {
		return err
	}
	if !spec.Composite || spec.Exclusive {
		return fmt.Errorf("core: D3 requires a shared composite attribute; %s.%s is %s: %w",
			class, attr, spec.RefKind(), ErrChangeRejected)
	}
	var children []uid.UID
	seen := uid.NewSet()
	for _, pid := range e.instancesOf(class) {
		p, ok := e.objects[pid]
		if !ok {
			continue
		}
		for _, childID := range p.Get(attr).Refs(nil) {
			child, ok := e.objects[childID]
			if !ok {
				continue
			}
			if len(child.Reverse()) > 1 {
				return fmt.Errorf("core: D3 rejected, %v has %d composite parents: %w",
					childID, len(child.Reverse()), ErrChangeRejected)
			}
			if seen.Add(childID) {
				children = append(children, childID)
			}
		}
	}
	if err := e.cat.UpdateAttributeFlags(class, attr, true, true, spec.Dependent); err != nil {
		return err
	}
	dirty := newDirtySet()
	for _, childID := range children {
		child := e.objects[childID]
		for _, r := range child.Reverse() {
			child.SetReverseFlags(r.Parent, r.Dependent, true)
		}
		dirty.add(childID)
	}
	return e.flush(dirty, nil)
}
