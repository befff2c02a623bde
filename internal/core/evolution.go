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

// rewrite runs a schema change or a copy under the exclusive latch, notes
// its write set (the objects fn marks dirty, and the ones it returns as
// deleted) for tx, and writes it through as every other mutation does. It
// returns the deleted UIDs in UID order. What fn changed before failing
// is noted and written too, so the transaction's abort puts it back.
func (e *Engine) rewrite(tx TxnID, fn func(dirty *dirtySet) ([]uid.UID, error)) ([]uid.UID, error) {
	e.mu.Lock()
	dirty := newDirtySet()
	deleted, err := fn(dirty)
	e.noteWritesLocked(tx, dirty, deleted)
	e.mu.Unlock()
	sort.Slice(deleted, func(i, j int) bool { return deleted[i].Less(deleted[j]) })
	if werr := e.writeThrough(tx, dirty, uid.Nil, uid.Nil, deleted); err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	return deleted, nil
}

// DropAttribute implements §4.1 change 1: drop attribute attr from class.
// Every instance of the class (and of its subclasses, which lose the
// inherited attribute) loses its value for attr; objects referenced
// through a composite attr are unlinked, and deleted in accordance with
// the Deletion Rule when the reference was dependent. It returns the UIDs
// of objects deleted by the cascade. tx tags the rewrite, as on every
// schema change below.
func (e *Engine) DropAttribute(tx TxnID, class, attr string) ([]uid.UID, error) {
	return e.rewrite(tx, func(dirty *dirtySet) ([]uid.UID, error) {
		spec, err := e.cat.DropAttribute(class, attr)
		if err != nil {
			return nil, err
		}
		deleted := uid.NewSet()
		e.dropAttrValuesLocked(class, spec, dirty, deleted)
		return deleted.Slice(), nil
	})
}

// dropAttrValuesLocked clears the value of spec from every instance of
// class (and subclasses), unlinking and reaping components. Caller holds
// e.mu and has already removed the attribute from the catalog.
func (e *Engine) dropAttrValuesLocked(class string, spec schema.AttrSpec, dirty *dirtySet, deleted *uid.Set) {
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
}

// RemoveSuperclass implements §4.1 change 3: remove super from class's
// superclass list. Attributes the class thereby loses are dropped from its
// instances as in DropAttribute, with composite cascades. It returns the
// UIDs deleted.
func (e *Engine) RemoveSuperclass(tx TxnID, class, super string) ([]uid.UID, error) {
	return e.rewrite(tx, func(dirty *dirtySet) ([]uid.UID, error) {
		lost, err := e.cat.RemoveSuperclass(class, super)
		if err != nil {
			return nil, err
		}
		deleted := uid.NewSet()
		for _, spec := range lost {
			e.dropAttrValuesLocked(class, spec, dirty, deleted)
		}
		return deleted.Slice(), nil
	})
}

// DropClass implements §4.1 change 4: delete every instance of the class
// (cascading per the Deletion Rule through its composite attributes), then
// remove the class, re-parenting its subclasses to its superclasses. It
// returns the UIDs deleted.
func (e *Engine) DropClass(tx TxnID, class string) ([]uid.UID, error) {
	return e.rewrite(tx, func(dirty *dirtySet) ([]uid.UID, error) {
		if err := e.cat.CanDropClass(class); err != nil {
			return nil, err
		}
		cl, err := e.cat.Class(class)
		if err != nil {
			return nil, err
		}
		deleted := uid.NewSet()
		for _, id := range append([]uid.UID(nil), e.extents[cl.ID].Slice()...) {
			if !deleted.Contains(id) {
				e.deleteLocked(id, deleted, dirty, 0)
			}
		}
		if _, err := e.cat.DropClass(class); err != nil {
			return deleted.Slice(), err
		}
		delete(e.extents, cl.ID)
		return deleted.Slice(), nil
	})
}

// RenameAttribute renames class.attr in the catalog and moves the stored
// values in every instance of the class and its subclasses. Reverse
// composite references are unaffected (they do not record the attribute
// name, §2.4).
func (e *Engine) RenameAttribute(tx TxnID, class, attr, newName string) error {
	_, err := e.rewrite(tx, func(dirty *dirtySet) ([]uid.UID, error) {
		if err := e.cat.RenameAttribute(class, attr, newName); err != nil {
			return nil, err
		}
		for _, id := range e.instancesOf(class) {
			o, ok := e.objects[id]
			if !ok || !o.Has(attr) {
				continue
			}
			o.RenameAttr(attr, newName)
			dirty.add(id)
		}
		return nil, nil
	})
	return err
}

// ChangeAttributeType performs a state-independent attribute-type change
// (I1–I4 of §4.2) on class.attr. With deferred=false the reverse
// composite references of every currently referenced object are rewritten
// now (§4.3 "immediate"); with deferred=true the rewrite is logged in the
// domain class's operation log and applied when each object is next
// accessed (§4.3 "deferred").
func (e *Engine) ChangeAttributeType(tx TxnID, class, attr string, kind schema.ChangeKind, deferred bool) error {
	_, err := e.rewrite(tx, func(dirty *dirtySet) ([]uid.UID, error) {
		return nil, e.changeAttributeTypeLocked(class, attr, kind, deferred, dirty)
	})
	return err
}

// changeAttributeTypeLocked is ChangeAttributeType's rewrite. Caller holds e.mu for writing.
func (e *Engine) changeAttributeTypeLocked(class, attr string, kind schema.ChangeKind, deferred bool, dirty *dirtySet) error {
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
	return nil
}

// MakeComposite performs the state-dependent changes D1 (weak ->
// exclusive composite) and D2 (weak -> shared composite) of §4.2: it
// verifies, for every instance of the domain class referenced through
// attr by any instance of class, that the Make-Component Rule admits the
// new reference kind, then records the new specification and inserts the
// reverse composite references. State-dependent changes can never be
// deferred (§4.3: they require immediate verification of the X flags).
func (e *Engine) MakeComposite(tx TxnID, class, attr string, exclusive, dependent bool) error {
	_, err := e.rewrite(tx, func(dirty *dirtySet) ([]uid.UID, error) {
		return nil, e.makeCompositeLocked(class, attr, exclusive, dependent, dirty)
	})
	return err
}

// makeCompositeLocked is MakeComposite's rewrite. Caller holds e.mu for writing.
func (e *Engine) makeCompositeLocked(class, attr string, exclusive, dependent bool, dirty *dirtySet) error {
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
	newSpec, _ := e.cat.Attribute(class, attr)
	for _, l := range links {
		linkChild(e.objects[l.child], l.parent, newSpec)
		dirty.add(l.child)
	}
	return nil
}

// MakeExclusive performs the state-dependent change D3 of §4.2 (shared
// composite -> exclusive composite): the change is rejected if any
// instance referenced through attr has more than one composite parent
// (§4.3: "more than one reverse composite reference, at least one from an
// instance of the class C'"); otherwise the X flag is turned on in the
// reverse references from instances of class.
func (e *Engine) MakeExclusive(tx TxnID, class, attr string) error {
	_, err := e.rewrite(tx, func(dirty *dirtySet) ([]uid.UID, error) {
		return nil, e.makeExclusiveLocked(class, attr, dirty)
	})
	return err
}

// makeExclusiveLocked is MakeExclusive's rewrite. Caller holds e.mu for writing.
func (e *Engine) makeExclusiveLocked(class, attr string, dirty *dirtySet) error {
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
	for _, childID := range children {
		child := e.objects[childID]
		for _, r := range child.Reverse() {
			child.SetReverseFlags(r.Parent, r.Dependent, true)
		}
		dirty.add(childID)
	}
	return nil
}
