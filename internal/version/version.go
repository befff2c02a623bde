// Package version implements §5 of the paper: versions of composite
// objects.
//
// A class declared versionable yields *versionable objects*: a generic
// instance plus a hierarchy of version instances derived from one another
// (the version-derivation hierarchy, whose history the generic instance
// keeps). References to a versionable object are either static (to a
// specific version instance) or dynamic (to the generic instance, resolved
// to the default version at access time).
//
// The rules of §5.2 as implemented here:
//
//	CV-1X: a composite reference from generic g-c to generic g-d means any
//	       number of version instances of g-c may hold that reference.
//	CV-2X: a version instance tolerates at most one exclusive composite
//	       reference (or any number of shared ones); a generic instance may
//	       hold several exclusive composite references only if all come
//	       from the same version-derivation hierarchy.
//	CV-3X: a composite reference between version instances implies one
//	       between their generic instances — materialized as the reverse
//	       composite generic references with ref-counts (§5.3, Figure 3).
//	CV-4X: deleting a generic instance deletes all its version instances
//	       and recursively the generic instances it references exclusively
//	       and dependently; deleting the last version instance deletes the
//	       generic instance.
//
// Derivation (Figure 1): when a version instance is copied, an exclusive
// composite reference to a *version instance* is rewritten to that
// instance's generic instance if independent, and to Nil if dependent;
// shared references and references to generic instances are copied as-is.
// An exclusive reference to a non-versionable object is set to Nil (the
// copy cannot be a second exclusive parent, and there is no generic
// instance to rebind to).
package version

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

// Sentinel errors.
var (
	ErrNotVersionable = errors.New("version: class is not versionable")
	ErrNotVersion     = errors.New("version: object is not a version instance")
	ErrNotGeneric     = errors.New("version: object is not a generic instance")
	ErrCV2X           = errors.New("version: rule CV-2X violation")
)

// Generic records the bookkeeping of one versionable object.
type Generic struct {
	UID         uid.UID
	Versions    []uid.UID           // creation order
	DerivedFrom map[uid.UID]uid.UID // version -> parent version (uid.Nil for the first)
	HasDefault  bool
	Default     uid.UID
	Stamp       map[uid.UID]uint64 // logical creation timestamps
}

// Writer is what a version statement writes through: a *txn.Txn, so the
// statement's writes are locked, logged and rolled back with its
// transaction, or the *core.Engine itself for an engine-direct write
// (tx 0).
type Writer interface {
	New(class string, attrs map[string]value.Value, parents ...core.ParentSpec) (*object.Object, error)
	AttachWithCheck(parent uid.UID, attr string, child uid.UID, check func(*object.Object, schema.AttrSpec) error) error
	Detach(parent uid.UID, attr string, child uid.UID) error
	Delete(id uid.UID) ([]uid.UID, error)
	Mutate(id uid.UID, fn func(o *object.Object)) error
}

// Manager maintains versionable objects over a core engine. All version
// and generic instances are ordinary engine objects of the versionable
// class; the manager adds the derivation bookkeeping and the reverse
// composite generic references of §5.3. It embeds the committed Books.
type Manager struct {
	Books
	mu        sync.Mutex
	e         *core.Engine
	generics  map[uid.UID]*Generic
	versionOf map[uid.UID]uid.UID
	clock     uint64
	// marks holds the entries open transactions added or dropped (mark).
	marks map[uid.UID]mark
}

// Books is the version bookkeeping as one transaction sees it: the
// committed entries, with the ones it added and without the ones it
// dropped. Other transactions see its changes once its objects are
// published.
type Books struct {
	m  *Manager
	tx core.TxnID
}

// NewManager returns a version manager over the engine.
func NewManager(e *core.Engine) *Manager {
	m := &Manager{
		e:         e,
		generics:  make(map[uid.UID]*Generic),
		versionOf: make(map[uid.UID]uid.UID),
		marks:     make(map[uid.UID]mark),
	}
	m.Books = Books{m: m}
	return m
}

// TxBooks returns the bookkeeping as transaction tx sees it; 0 gives the
// committed entries.
func (m *Manager) TxBooks(tx core.TxnID) Books { return Books{m, tx} }

// Engine returns the underlying engine.
func (m *Manager) Engine() *core.Engine { return m.e }

// generic returns the record of g, nil when b sees none. Caller holds
// m.mu.
func (b Books) generic(g uid.UID) *Generic {
	if gen := b.m.generics[g]; gen != nil && b.sees(g) {
		return gen
	}
	return nil
}

// genericOf returns the generic of version v as b sees it. Caller holds
// m.mu.
func (b Books) genericOf(v uid.UID) (uid.UID, bool) {
	g, ok := b.m.versionOf[v]
	return g, ok && b.sees(v)
}

// IsGeneric reports whether id is a generic instance.
func (b Books) IsGeneric(id uid.UID) bool {
	b.m.mu.Lock()
	defer b.m.mu.Unlock()
	return b.generic(id) != nil
}

// IsVersion reports whether id is a version instance.
func (b Books) IsVersion(id uid.UID) bool {
	_, err := b.GenericOf(id)
	return err == nil
}

// GenericOf returns the generic instance of a version instance.
func (b Books) GenericOf(v uid.UID) (uid.UID, error) {
	b.m.mu.Lock()
	defer b.m.mu.Unlock()
	g, ok := b.genericOf(v)
	if !ok {
		return uid.Nil, fmt.Errorf("%v: %w", v, ErrNotVersion)
	}
	return g, nil
}

// Info returns a copy of the generic bookkeeping for g.
func (b Books) Info(g uid.UID) (Generic, error) {
	b.m.mu.Lock()
	defer b.m.mu.Unlock()
	gen := b.generic(g)
	if gen == nil {
		return Generic{}, fmt.Errorf("%v: %w", g, ErrNotGeneric)
	}
	return b.info(gen), nil
}

// info copies gen as b sees it: without the versions b does not see, and
// unpinned when b does not see the pinned one. Caller holds m.mu.
func (b Books) info(gen *Generic) Generic {
	out := *gen
	hidden := func(v uid.UID) bool { return !b.sees(v) }
	out.Versions = slices.DeleteFunc(slices.Clone(gen.Versions), hidden)
	out.DerivedFrom = maps.Clone(gen.DerivedFrom)
	out.Stamp = maps.Clone(gen.Stamp)
	maps.DeleteFunc(out.DerivedFrom, func(v, _ uid.UID) bool { return hidden(v) })
	maps.DeleteFunc(out.Stamp, func(v uid.UID, _ uint64) bool { return hidden(v) })
	if out.HasDefault && hidden(out.Default) {
		out.HasDefault, out.Default = false, uid.Nil
	}
	return out
}

// CreateVersionable creates a versionable object of the (versionable)
// class: a generic instance plus the first version instance carrying
// attrs, written through w. It returns (generic, firstVersion).
func (m *Manager) CreateVersionable(w Writer, class string, attrs map[string]value.Value) (uid.UID, uid.UID, error) {
	cl, err := m.e.Catalog().Class(class)
	if err != nil {
		return uid.Nil, uid.Nil, err
	}
	if !cl.Versionable {
		return uid.Nil, uid.Nil, fmt.Errorf("%q: %w", class, ErrNotVersionable)
	}
	gObj, err := w.New(class, nil)
	if err != nil {
		return uid.Nil, uid.Nil, err
	}
	m.mu.Lock()
	gen := &Generic{
		UID:         gObj.UID(),
		DerivedFrom: make(map[uid.UID]uid.UID),
		Stamp:       make(map[uid.UID]uint64),
	}
	m.generics[gObj.UID()] = gen
	m.added(txOf(w), gen.UID)
	m.mu.Unlock()

	v, err := m.newVersion(w, gen, attrs, uid.Nil)
	if err != nil {
		_, _ = w.Delete(gObj.UID())
		m.forget(txOf(w), gObj.UID())
		return uid.Nil, uid.Nil, err
	}
	return gObj.UID(), v, nil
}

// newVersion creates a version instance under gen, wiring composite
// references through the version-aware attach path.
func (m *Manager) newVersion(w Writer, gen *Generic, attrs map[string]value.Value, from uid.UID) (uid.UID, error) {
	cl, err := m.e.Catalog().ClassByID(gen.UID.Class)
	if err != nil {
		return uid.Nil, err
	}
	// Split attrs: plain values go through New; references through
	// version-aware attach (which knows rule CV-2X and the generic
	// bookkeeping).
	specs, err := m.e.Catalog().Attributes(cl.Name)
	if err != nil {
		return uid.Nil, err
	}
	specOf := map[string]schema.AttrSpec{}
	for _, s := range specs {
		specOf[s.Name] = s
	}
	plain := map[string]value.Value{}
	type refAttach struct {
		attr   string
		target uid.UID
	}
	var refs []refAttach
	for name, v := range attrs {
		spec, ok := specOf[name]
		if ok && spec.Composite {
			for _, r := range v.Refs(nil) {
				refs = append(refs, refAttach{name, r})
			}
			continue
		}
		plain[name] = v
	}
	vObj, err := w.New(cl.Name, plain)
	if err != nil {
		return uid.Nil, err
	}
	m.mu.Lock()
	m.clock++
	gen.Versions = append(gen.Versions, vObj.UID())
	gen.DerivedFrom[vObj.UID()] = from
	gen.Stamp[vObj.UID()] = m.clock
	m.versionOf[vObj.UID()] = gen.UID
	m.added(txOf(w), vObj.UID())
	m.mu.Unlock()

	for i, r := range refs {
		if err := m.Attach(w, vObj.UID(), r.attr, r.target); err != nil {
			// Roll the half-created version back, so the statement leaves
			// nothing behind in a transaction that goes on: unlink what
			// it attached, then delete it.
			for _, a := range refs[:i] {
				_ = m.Detach(w, vObj.UID(), a.attr, a.target)
			}
			_, _ = w.Delete(vObj.UID())
			m.forget(txOf(w), vObj.UID())
			return uid.Nil, err
		}
	}
	return vObj.UID(), nil
}

// Derive copies version instance from into a new version instance of the
// same generic, applying the Figure 1 reference rewrites.
func (m *Manager) Derive(w Writer, from uid.UID) (uid.UID, error) {
	if err := admit(w, false, from); err != nil { // no one deletes it meanwhile
		return uid.Nil, err
	}
	b := m.TxBooks(txOf(w))
	gID, err := b.GenericOf(from)
	if err != nil {
		return uid.Nil, err
	}
	m.mu.Lock()
	gen := m.generics[gID]
	m.mu.Unlock()
	src, err := m.view(w).Get(from)
	if err != nil {
		return uid.Nil, err
	}
	cl, err := m.e.Catalog().ClassByID(from.Class)
	if err != nil {
		return uid.Nil, err
	}
	attrs := map[string]value.Value{}
	src.Each(func(name string, v value.Value) {
		spec, err := m.e.Catalog().Attribute(cl.Name, name)
		if err != nil {
			return
		}
		if spec.Composite {
			v = b.rewriteForDerivation(v, spec)
		}
		if !v.IsNil() {
			attrs[name] = v
		}
	})
	return m.newVersion(w, gen, attrs, from)
}

// rewriteForDerivation applies the Figure 1 rules to one composite value.
func (b Books) rewriteForDerivation(v value.Value, spec schema.AttrSpec) value.Value {
	if !spec.Exclusive {
		return v // shared references copy as-is (CV-2X allows many)
	}
	for _, r := range v.Refs(nil) {
		if b.IsGeneric(r) {
			continue // reference to a generic instance stays (CV-1X)
		}
		if spec.Dependent {
			v = v.WithoutRef(r) // dependent exclusive -> Nil
			continue
		}
		if g, err := b.GenericOf(r); err == nil {
			v = v.ReplaceRef(r, g) // independent exclusive -> generic
		} else {
			v = v.WithoutRef(r) // exclusive ref to a non-versionable object
		}
	}
	return v
}

// Attach creates a composite (or weak) reference from parent.attr to
// child with version-aware validation (rule CV-2X) and the §5.3 reverse
// composite generic reference bookkeeping.
func (m *Manager) Attach(w Writer, parent uid.UID, attr string, child uid.UID) error {
	pcl, err := m.e.ClassOf(parent)
	if err != nil {
		return err
	}
	spec, err := m.e.Catalog().Attribute(pcl.Name, attr)
	if err != nil {
		return err
	}
	check := func(childObj *object.Object, s schema.AttrSpec) error {
		return m.TxBooks(txOf(w)).cv2xCheck(parent, childObj, s)
	}
	if err := w.AttachWithCheck(parent, attr, child, check); err != nil {
		return err
	}
	if spec.Composite {
		return m.noteRefAdded(w, parent, child, spec)
	}
	return nil
}

// Detach removes the reference and decrements the generic-level
// ref-count, dropping the reverse composite generic reference when it
// reaches zero (Figure 3).
func (m *Manager) Detach(w Writer, parent uid.UID, attr string, child uid.UID) error {
	pcl, err := m.e.ClassOf(parent)
	if err != nil {
		return err
	}
	spec, err := m.e.Catalog().Attribute(pcl.Name, attr)
	if err != nil {
		return err
	}
	if err := w.Detach(parent, attr, child); err != nil {
		return err
	}
	if spec.Composite {
		return m.noteRefRemoved(w, parent, child)
	}
	return nil
}

// cv2xCheck enforces rule CV-2X: the standard Make-Component Rule for
// version instances and non-versionable objects, relaxed for generic
// instances so that multiple exclusive references are legal when all stem
// from version instances of one derivation hierarchy.
func (b Books) cv2xCheck(parent uid.UID, child *object.Object, spec schema.AttrSpec) error {
	if !b.IsGeneric(child.UID()) {
		// Standard rule (§2.2).
		if spec.Exclusive {
			if child.HasAnyReverse() {
				return fmt.Errorf("version: %v already has a composite parent: %w", child.UID(), core.ErrTopologyViolation)
			}
			return nil
		}
		if child.HasExclusiveReverse() {
			return fmt.Errorf("version: %v has an exclusive composite parent: %w", child.UID(), core.ErrTopologyViolation)
		}
		return nil
	}
	// Child is a generic instance.
	if !spec.Exclusive {
		if child.HasExclusiveReverse() {
			// A generic with exclusive references cannot also be shared.
			return fmt.Errorf("version: generic %v has exclusive references: %w", child.UID(), ErrCV2X)
		}
		return nil
	}
	// Exclusive reference to a generic: every existing exclusive reference
	// must come from a version instance of the same generic as parent.
	parentGen, err := b.GenericOf(parent)
	if err != nil {
		// Parent is not a version instance: only one exclusive ref allowed.
		if child.HasAnyReverse() {
			return fmt.Errorf("version: generic %v already referenced; exclusive reference from non-version %v: %w",
				child.UID(), parent, ErrCV2X)
		}
		return nil
	}
	for _, r := range child.Reverse() {
		if !r.Exclusive {
			return fmt.Errorf("version: generic %v has shared references: %w", child.UID(), ErrCV2X)
		}
		otherGen, err := b.GenericOf(r.Parent)
		if err != nil || otherGen != parentGen {
			// Generic-level entries are keyed by the parent's generic.
			if r.Parent == parentGen {
				continue
			}
			return fmt.Errorf("version: generic %v exclusively referenced from a different derivation hierarchy (%v): %w",
				child.UID(), r.Parent, ErrCV2X)
		}
	}
	return nil
}

// genericKey maps a referencing parent to the key its generic-level entry
// uses: the parent itself when non-versionable, its generic otherwise.
func (b Books) genericKey(parent uid.UID) uid.UID {
	if g, err := b.GenericOf(parent); err == nil {
		return g
	}
	return parent
}

// genericEntry locates the generic-level entry of a composite reference
// parent -> child: the generic holding it and the key it is kept under.
// ok is false when there is none to keep.
func (b Books) genericEntry(parent, child uid.UID) (gID, key uid.UID, ok bool) {
	if g, err := b.GenericOf(child); err == nil {
		gID = g // static binding: entry goes in the version's generic
	} else if b.IsGeneric(child) {
		gID = child // dynamic binding: entry goes in the generic itself
	} else {
		return gID, key, false // child not versionable
	}
	key = b.genericKey(parent)
	// A non-versionable parent referencing the generic directly: the
	// engine's own reverse reference in the generic already records it.
	return gID, key, gID != child || key != parent
}

// noteRefAdded maintains the reverse composite generic references (§5.3)
// after a composite reference parent -> child was created.
func (m *Manager) noteRefAdded(w Writer, parent, child uid.UID, spec schema.AttrSpec) error {
	gID, key, ok := m.TxBooks(txOf(w)).genericEntry(parent, child)
	if !ok {
		return nil
	}
	return w.Mutate(gID, func(gObj *object.Object) {
		if i := gObj.FindReverse(key); i >= 0 && gObj.Reverse()[i].Count > 0 {
			r := gObj.Reverse()[i]
			r.Count++
			gObj.AddReverse(r)
			return
		}
		gObj.AddReverse(object.ReverseRef{
			Parent:    key,
			Dependent: spec.Dependent,
			Exclusive: spec.Exclusive,
			Count:     1,
		})
	})
}

// noteRefRemoved decrements the generic-level ref-count for the removed
// composite reference parent -> child, removing the entry at zero.
func (m *Manager) noteRefRemoved(w Writer, parent, child uid.UID) error {
	gID, key, ok := m.TxBooks(txOf(w)).genericEntry(parent, child)
	if !ok {
		return nil
	}
	return w.Mutate(gID, func(gObj *object.Object) {
		if i := gObj.FindReverse(key); i >= 0 {
			r := gObj.Reverse()[i]
			if r.Count > 1 {
				r.Count--
				gObj.AddReverse(r)
			} else {
				gObj.RemoveReverse(key)
			}
		}
	})
}

// SetDefault pins the default version of g (dynamic references resolve to
// it). Passing uid.Nil clears the pin, reverting to the system default
// (the newest version by creation timestamp).
func (b Books) SetDefault(g, v uid.UID) error {
	b.m.mu.Lock()
	defer b.m.mu.Unlock()
	gen := b.generic(g)
	if gen == nil {
		return fmt.Errorf("%v: %w", g, ErrNotGeneric)
	}
	if v.IsNil() {
		gen.HasDefault = false
		gen.Default = uid.Nil
		return nil
	}
	if of, ok := b.genericOf(v); !ok || of != g {
		return fmt.Errorf("%v is not a version of %v: %w", v, g, ErrNotVersion)
	}
	gen.HasDefault = true
	gen.Default = v
	return nil
}

// DefaultVersion returns the default version instance of g: the
// user-specified default if set, otherwise the version with the newest
// creation timestamp (§5.1).
func (b Books) DefaultVersion(g uid.UID) (uid.UID, error) {
	gen, err := b.Info(g)
	if err != nil {
		return uid.Nil, err
	}
	if gen.HasDefault {
		return gen.Default, nil
	}
	var best uid.UID
	var bestTS uint64
	for _, v := range gen.Versions {
		if ts := gen.Stamp[v]; ts >= bestTS {
			best, bestTS = v, ts
		}
	}
	if best.IsNil() {
		return uid.Nil, fmt.Errorf("%v has no versions: %w", g, ErrNotGeneric)
	}
	return best, nil
}

// Resolve implements dynamic binding: a generic instance resolves to its
// default version; anything else resolves to itself.
func (b Books) Resolve(id uid.UID) (uid.UID, error) {
	if b.IsGeneric(id) {
		return b.DefaultVersion(id)
	}
	return id, nil
}

// DeleteVersion deletes one version instance through w. Per CV-2X/CV-4X
// the engine cascade deletes version instances statically bound through
// dependent references; if the deleted instance was the last version,
// the generic instance is deleted too (recursively through its exclusive
// dependent generic references).
func (m *Manager) DeleteVersion(w Writer, v uid.UID) error {
	b := m.TxBooks(txOf(w))
	gID, err := b.GenericOf(v)
	if err != nil {
		return err
	}
	// Deleters of the versions of one generic serialize: each decides
	// below whether it is left without versions.
	if err := admit(w, true, gID); err != nil {
		return err
	}
	// Decrement generic-level counts for the composite references v holds.
	if obj, err := m.view(w).Get(v); err == nil {
		cl, _ := m.e.Catalog().ClassByID(v.Class)
		if cl != nil {
			attrs, _ := m.e.Catalog().Attributes(cl.Name)
			for _, spec := range attrs {
				if !spec.Composite {
					continue
				}
				for _, child := range obj.Get(spec.Name).Refs(nil) {
					if err := m.noteRefRemoved(w, v, child); err != nil {
						return err
					}
				}
			}
		}
	}
	// The cascade may remove versions of other generics too.
	deleted, err := w.Delete(v)
	if err != nil {
		return err
	}
	m.forget(txOf(w), deleted...)
	// Every generic left without versions is deleted as well (CV-4X).
	m.mu.Lock()
	var empty []uid.UID
	for g, gen := range m.generics {
		if b.sees(g) && !slices.ContainsFunc(gen.Versions, b.sees) {
			empty = append(empty, g)
		}
	}
	m.mu.Unlock()
	sort.Slice(empty, func(i, j int) bool { return empty[i].Less(empty[j]) })
	for _, g := range empty {
		if err := m.DeleteGeneric(w, g); err != nil && !errors.Is(err, ErrNotGeneric) {
			return err
		}
	}
	return nil
}

// remove drops v from g, and its pin.
func (g *Generic) remove(v uid.UID) {
	g.Versions = slices.DeleteFunc(g.Versions, func(x uid.UID) bool { return x == v })
	delete(g.DerivedFrom, v)
	delete(g.Stamp, v)
	if g.HasDefault && g.Default == v {
		g.HasDefault, g.Default = false, uid.Nil
	}
}

// DeleteGeneric deletes the whole versionable object through w: all
// version instances, the generic instance, and recursively the generic
// instances it holds exclusive dependent references to (CV-4X). The
// reverse composite generic references identify those targets.
func (m *Manager) DeleteGeneric(w Writer, g uid.UID) error {
	b := m.TxBooks(txOf(w))
	m.mu.Lock()
	gen := b.generic(g)
	if gen == nil {
		m.mu.Unlock()
		return fmt.Errorf("%v: %w", g, ErrNotGeneric)
	}
	versions := b.info(gen).Versions
	m.forgetLocked(b.tx, g)
	m.mu.Unlock()

	for _, v := range versions {
		if !b.IsVersion(v) || !m.view(w).Exists(v) {
			continue
		}
		// Bypass the last-version bookkeeping: the generic is already gone.
		deleted, err := w.Delete(v)
		if err != nil {
			return err
		}
		m.forget(txOf(w), deleted...)
	}
	// Recursive generic deletion: find generics whose reverse composite
	// generic references name g with D and X flags.
	var cascade []uid.UID
	m.mu.Lock()
	others := make([]uid.UID, 0, len(m.generics))
	for id := range m.generics {
		if b.sees(id) {
			others = append(others, id)
		}
	}
	m.mu.Unlock()
	sort.Slice(others, func(i, j int) bool { return others[i].Less(others[j]) })
	for _, id := range others {
		if obj, err := m.view(w).Get(id); err != nil || obj.FindReverse(g) < 0 {
			continue // no entry for g: nothing to write
		}
		var r object.ReverseRef
		if err := w.Mutate(id, func(obj *object.Object) {
			if i := obj.FindReverse(g); i >= 0 {
				r = obj.Reverse()[i]
				obj.RemoveReverse(g)
			}
		}); err != nil {
			return err
		}
		if r.Exclusive && r.Dependent {
			cascade = append(cascade, id)
		}
	}
	if m.view(w).Exists(g) {
		deleted, err := w.Delete(g)
		if err != nil {
			return err
		}
		m.forget(txOf(w), deleted...)
	}
	for _, id := range cascade {
		if err := m.DeleteGeneric(w, id); err != nil && !errors.Is(err, ErrNotGeneric) {
			return err
		}
	}
	return nil
}

// state is the serialized form of the manager's bookkeeping.
type state struct {
	Clock    uint64    `json:"clock"`
	Generics []Generic `json:"generics"`
}

// Save serializes the committed version bookkeeping (the objects
// themselves persist through the storage layer).
func (m *Manager) Save(w io.Writer) error {
	m.mu.Lock()
	st := state{Clock: m.clock}
	for id, g := range m.generics {
		if m.sees(id) {
			st.Generics = append(st.Generics, m.info(g))
		}
	}
	m.mu.Unlock()
	sort.Slice(st.Generics, func(i, j int) bool { return st.Generics[i].UID.Less(st.Generics[j].UID) })
	return json.NewEncoder(w).Encode(&st)
}

// Load restores bookkeeping saved by Save.
func (m *Manager) Load(r io.Reader) error {
	var st state
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("version: load: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock = st.Clock
	m.generics = make(map[uid.UID]*Generic, len(st.Generics))
	m.versionOf = make(map[uid.UID]uid.UID)
	m.marks = make(map[uid.UID]mark)
	for i := range st.Generics {
		g := st.Generics[i]
		m.generics[g.UID] = &g
		for _, v := range g.Versions {
			m.versionOf[v] = g.UID
		}
	}
	return nil
}
