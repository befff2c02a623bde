package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/schema"
	"repro/internal/uid"
)

// instancesOf returns the instances of class and its subclasses as the
// operation sees them, in UID order.
func (w *op) instancesOf(class string) []uid.UID {
	var ids []uid.ClassID
	for _, name := range w.e.cat.AllSubclasses(class) {
		if cl, err := w.e.cat.Class(name); err == nil {
			ids = append(ids, cl.ID)
		}
	}
	return w.extent(ids...)
}

// extent returns the instances of the classes as the operation sees them,
// in UID order: the committed extents, less what the transaction or the
// operation deleted, plus what they created.
func (w *op) extent(classes ...uid.ClassID) []uid.UID {
	set := uid.NewSet()
	for _, c := range classes {
		for _, id := range w.e.extents[c].Slice() {
			set.Add(id)
		}
	}
	for _, layer := range []overlay{w.base, w.objs} {
		for id := range layer {
			if slices.Contains(classes, id.Class) {
				set.Add(id)
			}
		}
	}
	var out []uid.UID
	for _, id := range set.Slice() {
		if o, _ := w.lookup(id); o != nil {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// DropAttribute implements §4.1 change 1: drop attribute attr from class.
// Every instance of the class (and of its subclasses, which lose the
// inherited attribute) loses its value for attr; objects referenced
// through a composite attr are unlinked, and deleted in accordance with
// the Deletion Rule when the reference was dependent. It returns the UIDs
// of objects deleted by the cascade. tx tags the rewrite, as on every
// schema change below.
func (e *Engine) DropAttribute(tx TxnID, class, attr string) ([]uid.UID, error) {
	return e.evolve(tx, func(w *op) ([]uid.UID, error) {
		spec, err := e.cat.DropAttribute(class, attr)
		if err != nil {
			return nil, err
		}
		deleted := uid.NewSet()
		w.dropAttrValues(class, spec, deleted)
		return deleted.Slice(), nil
	})
}

// dropAttrValues clears the value of spec from every instance of class
// (and subclasses), unlinking and reaping components. The attribute is
// already gone from the catalog.
func (w *op) dropAttrValues(class string, spec schema.AttrSpec, deleted *uid.Set) {
	for _, id := range w.instancesOf(class) {
		o := w.peek(id)
		if o == nil || deleted.Contains(id) {
			continue
		}
		v := o.Get(spec.Name)
		if v.IsNil() {
			continue
		}
		if spec.Composite {
			for _, childID := range v.Refs(nil) {
				w.reap(id, childID, spec.Dependent, spec.Exclusive, deleted, 0)
			}
		}
		if o, err := w.get(id); err == nil { // may have died in a cyclic cascade
			o.Unset(spec.Name)
			w.dirty.Add(id)
		}
	}
}

// RemoveSuperclass implements §4.1 change 3: remove super from class's
// superclass list. Attributes the class thereby loses are dropped from its
// instances as in DropAttribute, with composite cascades. It returns the
// UIDs deleted.
func (e *Engine) RemoveSuperclass(tx TxnID, class, super string) ([]uid.UID, error) {
	return e.evolve(tx, func(w *op) ([]uid.UID, error) {
		lost, err := e.cat.RemoveSuperclass(class, super)
		if err != nil {
			return nil, err
		}
		deleted := uid.NewSet()
		for _, spec := range lost {
			w.dropAttrValues(class, spec, deleted)
		}
		return deleted.Slice(), nil
	})
}

// DropClass implements §4.1 change 4: delete every instance of the class
// (cascading per the Deletion Rule through its composite attributes), then
// remove the class, re-parenting its subclasses to its superclasses. It
// returns the UIDs deleted.
func (e *Engine) DropClass(tx TxnID, class string) ([]uid.UID, error) {
	return e.evolve(tx, func(w *op) ([]uid.UID, error) {
		if err := e.cat.CanDropClass(class); err != nil {
			return nil, err
		}
		cl, err := e.cat.Class(class)
		if err != nil {
			return nil, err
		}
		deleted := uid.NewSet()
		for _, id := range w.extent(cl.ID) {
			w.delete(id, deleted, 0)
		}
		if _, err := e.cat.DropClass(class); err != nil {
			return nil, err
		}
		return deleted.Slice(), nil
	})
}

// RenameAttribute renames class.attr in the catalog and moves the stored
// values in every instance of the class and its subclasses. Reverse
// composite references are unaffected (they do not record the attribute
// name, §2.4).
func (e *Engine) RenameAttribute(tx TxnID, class, attr, newName string) error {
	_, err := e.evolve(tx, func(w *op) ([]uid.UID, error) {
		if err := e.cat.RenameAttribute(class, attr, newName); err != nil {
			return nil, err
		}
		for _, id := range w.instancesOf(class) {
			if o := w.peek(id); o == nil || !o.Has(attr) {
				continue
			}
			o, _ := w.get(id)
			o.RenameAttr(attr, newName)
			w.dirty.Add(id)
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
	_, err := e.evolve(tx, func(w *op) ([]uid.UID, error) {
		return nil, w.changeAttributeType(class, attr, kind, deferred)
	})
	return err
}

// changeAttributeType is ChangeAttributeType's rewrite.
func (w *op) changeAttributeType(class, attr string, kind schema.ChangeKind, deferred bool) error {
	e := w.e
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
	for _, pid := range w.instancesOf(entry.OwnerClass) {
		p := w.peek(pid)
		if p == nil {
			continue
		}
		for _, childID := range p.Get(attr).Refs(nil) {
			child, err := w.get(childID)
			if err != nil {
				continue
			}
			switch kind {
			case schema.ChangeDropComposite:
				child.RemoveReverse(pid)
			default:
				child.SetReverseFlags(pid, spec.Dependent, spec.Exclusive)
			}
			w.dirty.Add(childID)
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
	_, err := e.evolve(tx, func(w *op) ([]uid.UID, error) {
		return nil, w.makeComposite(class, attr, exclusive, dependent)
	})
	return err
}

// makeComposite is MakeComposite's rewrite.
func (w *op) makeComposite(class, attr string, exclusive, dependent bool) error {
	e := w.e
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
	for _, pid := range w.instancesOf(class) {
		p := w.peek(pid)
		if p == nil {
			continue
		}
		for _, childID := range p.Get(attr).Refs(nil) {
			links = append(links, link{pid, childID})
		}
	}
	seenChildren := uid.NewSet()
	for _, l := range links {
		child := w.peek(l.child)
		if child == nil {
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
		child, _ := w.get(l.child)
		linkChild(child, l.parent, newSpec)
		w.dirty.Add(l.child)
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
	_, err := e.evolve(tx, func(w *op) ([]uid.UID, error) {
		return nil, w.makeExclusive(class, attr)
	})
	return err
}

// makeExclusive is MakeExclusive's rewrite.
func (w *op) makeExclusive(class, attr string) error {
	e := w.e
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
	for _, pid := range w.instancesOf(class) {
		p := w.peek(pid)
		if p == nil {
			continue
		}
		for _, childID := range p.Get(attr).Refs(nil) {
			child := w.peek(childID)
			if child == nil {
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
		child, _ := w.get(childID)
		for _, r := range child.Reverse() {
			child.SetReverseFlags(r.Parent, r.Dependent, true)
		}
		w.dirty.Add(childID)
	}
	return nil
}
