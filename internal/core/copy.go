package core

import (
	"fmt"

	"repro/internal/uid"
)

// CopyComposite copies the composite object rooted at root, following the
// deep/shallow semantics the reference types imply (after [KIM87a], the
// complex-object operations paper this one extends):
//
//   - exclusive components are DEEP-copied: a part of only one object
//     cannot be shared with the copy, so the copy gets its own part
//     (recursively);
//   - shared components are SHARED: the copy references the same
//     component, gaining one more shared parent (subject to the
//     Make-Component Rule, which always admits another shared parent);
//   - weak references are copied as-is (they carry no IS-PART-OF
//     semantics and may dangle or be shared freely).
//
// It returns the UID of the new root and a mapping original -> copy for
// every deep-copied object. tx tags the writes.
func (e *Engine) CopyComposite(tx TxnID, root uid.UID) (uid.UID, map[uid.UID]uid.UID, error) {
	mapping := make(map[uid.UID]uid.UID)
	var copyID uid.UID
	_, err := e.write(tx, func(w *op) (_ []uid.UID, err error) {
		if e.legacy {
			return nil, fmt.Errorf("core: copy-composite: %w", ErrLegacyRestriction)
		}
		copyID, err = w.copy(root, mapping)
		return nil, err
	})
	if err != nil {
		return uid.Nil, nil, err
	}
	return copyID, mapping, nil
}

// copy deep-copies one object. mapping doubles as the visited set, so
// cyclic exclusive hierarchies (legal only transiently) terminate.
func (w *op) copy(id uid.UID, mapping map[uid.UID]uid.UID) (uid.UID, error) {
	if c, ok := mapping[id]; ok {
		return c, nil
	}
	e := w.e
	src := w.peek(id)
	if src == nil {
		return uid.Nil, fmt.Errorf("%v: %w", id, ErrNoObject)
	}
	cl, err := e.cat.ClassByID(id.Class)
	if err != nil {
		return uid.Nil, err
	}
	cp := src.CloneAs(e.gen.Next(cl.ID))
	cp.SetCC(e.cat.CurrentCC())
	mapping[id] = cp.UID()
	w.objs[cp.UID()] = cp
	w.dirty.Add(cp.UID())

	attrs, err := e.cat.Attributes(cl.Name)
	if err != nil {
		return uid.Nil, err
	}
	for _, spec := range attrs {
		if !spec.Composite {
			continue // weak references stay as copied by CloneAs
		}
		v := cp.Get(spec.Name)
		if v.IsNil() {
			continue
		}
		if spec.Exclusive {
			// Deep copy every referenced component and rewrite the value.
			for _, childID := range v.Refs(nil) {
				childCopy, err := w.copy(childID, mapping)
				if err != nil {
					return uid.Nil, err
				}
				v = v.ReplaceRef(childID, childCopy)
				child, _ := w.get(childCopy)
				linkChild(child, cp.UID(), spec)
				w.dirty.Add(childCopy)
			}
			cp.Set(spec.Name, v)
			continue
		}
		// Shared: the copy references the same components; each gains one
		// more shared parent. A shared component can never have an
		// exclusive parent (Topology Rule 3), so the Make-Component Rule
		// is satisfied by construction — checked anyway for safety.
		for _, childID := range v.Refs(nil) {
			child, err := w.get(childID)
			if err != nil {
				return uid.Nil, err
			}
			if err := makeComponentCheck(child, spec); err != nil {
				return uid.Nil, err
			}
			linkChild(child, cp.UID(), spec)
			w.dirty.Add(childID)
		}
	}
	return cp.UID(), nil
}
