package schema

import (
	"fmt"
	"sort"

	"repro/internal/object"
	"repro/internal/uid"
)

// ChangeKind identifies a state-independent attribute-type change (§4.2).
// The state-dependent changes D1–D3 are not ChangeKinds because they can
// never be deferred: they require immediate verification of the X flags
// (§4.3), so the engine performs them eagerly via UpdateAttributeFlags.
type ChangeKind uint8

// The state-independent changes of §4.2.
const (
	// ChangeDropComposite is I1: composite -> non-composite.
	ChangeDropComposite ChangeKind = iota + 1
	// ChangeToShared is I2: exclusive composite -> shared composite.
	ChangeToShared
	// ChangeToIndependent is I3: dependent composite -> independent.
	ChangeToIndependent
	// ChangeToDependent is I4: independent composite -> dependent.
	ChangeToDependent
)

// String names the change as in the paper.
func (k ChangeKind) String() string {
	switch k {
	case ChangeDropComposite:
		return "I1 (composite -> non-composite)"
	case ChangeToShared:
		return "I2 (exclusive -> shared)"
	case ChangeToIndependent:
		return "I3 (dependent -> independent)"
	case ChangeToDependent:
		return "I4 (independent -> dependent)"
	default:
		return fmt.Sprintf("change(%d)", uint8(k))
	}
}

// LogEntry is one recorded attribute-type change in a domain class's
// operation log (§4.3): the change kind, the owning class C' whose
// attribute changed, and the change count CC at which it was issued.
type LogEntry struct {
	CC         uint64
	Kind       ChangeKind
	OwnerClass string
	OwnerID    uid.ClassID
	Attr       string
}

// OpLog is the operation log kept per domain class C, recording
// type changes to attributes of which C is the domain.
type OpLog struct {
	Entries []LogEntry
}

// ChangeAttributeType performs a state-independent change (I1–I4) to
// attribute attr of class name. The spec change is always immediate (the
// catalog is authoritative); what may be deferred is the rewriting of the
// D/X flags in the reverse composite references of the referenced
// instances. With deferred=false the caller (engine) must rewrite flags in
// all instances of the domain class now; with deferred=true the change is
// appended to the domain class's operation log and instances are fixed up
// lazily by ApplyPending when next accessed (§4.3).
//
// The returned LogEntry describes the flag rewrite in either mode.
func (c *Catalog) ChangeAttributeType(name, attr string, kind ChangeKind, deferred bool) (LogEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.version.Add(1)
	def, spec, err := c.definingClassLocked(name, attr)
	if err != nil {
		return LogEntry{}, err
	}
	if !spec.Composite {
		return LogEntry{}, fmt.Errorf("schema: %s of non-composite %q.%q", kind, name, attr)
	}
	switch kind {
	case ChangeDropComposite:
		spec.Composite = false
	case ChangeToShared:
		if !spec.Exclusive {
			return LogEntry{}, fmt.Errorf("schema: I2 of already-shared %q.%q", name, attr)
		}
		spec.Exclusive = false
	case ChangeToIndependent:
		if !spec.Dependent {
			return LogEntry{}, fmt.Errorf("schema: I3 of already-independent %q.%q", name, attr)
		}
		spec.Dependent = false
	case ChangeToDependent:
		if spec.Dependent {
			return LogEntry{}, fmt.Errorf("schema: I4 of already-dependent %q.%q", name, attr)
		}
		spec.Dependent = true
	default:
		return LogEntry{}, fmt.Errorf("schema: unknown change kind %d", kind)
	}
	entry := LogEntry{
		Kind:       kind,
		OwnerClass: def.Name,
		OwnerID:    def.ID,
		Attr:       attr,
	}
	if deferred {
		domain := spec.Domain.Class
		log := c.logs[domain]
		if log == nil {
			log = &OpLog{}
			c.logs[domain] = log
		}
		c.globalCC++
		entry.CC = c.globalCC
		log.Entries = append(log.Entries, entry)
	}
	return entry, nil
}

// UpdateAttributeFlags overwrites the composite/exclusive/dependent flags
// of attr. It is the catalog half of the state-dependent changes D1–D3:
// the engine verifies the preconditions against instance state first, then
// records the new spec here.
func (c *Catalog) UpdateAttributeFlags(name, attr string, composite, exclusive, dependent bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.version.Add(1)
	_, spec, err := c.definingClassLocked(name, attr)
	if err != nil {
		return err
	}
	if composite && spec.Domain.Kind != DomainClass {
		return fmt.Errorf("schema: %q.%q cannot become composite: primitive domain", name, attr)
	}
	spec.Composite = composite
	spec.Exclusive = exclusive
	spec.Dependent = dependent
	return nil
}

// CurrentCC returns the catalog-wide change counter. New instances are
// stamped with this value so that no pending changes apply to them
// (§4.3: "the CC of the instance is set to the current value of the CC of
// the class, since changes issued before the creation of the instance
// need not be applied to this instance").
func (c *Catalog) CurrentCC() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.globalCC
}

// Pending returns the log entries with CC greater than cc that apply to
// instances of class name (looking through name's superclasses, since a
// reference typed by superclass C may point to an instance of a subclass).
func (c *Catalog) Pending(name string, cc uint64) []LogEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []LogEntry
	seen := map[string]bool{}
	var walk func(n string)
	walk = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		if log := c.logs[n]; log != nil {
			for _, e := range log.Entries {
				if e.CC > cc {
					out = append(out, e)
				}
			}
		}
		if cl, ok := c.classes[n]; ok {
			for _, s := range cl.Superclasses {
				walk(s)
			}
		}
	}
	walk(name)
	sort.Slice(out, func(i, j int) bool { return out[i].CC < out[j].CC })
	return out
}

// ApplyPending applies all deferred flag changes newer than o's CC stamp
// to o's reverse composite references, then advances the stamp. className
// is o's class name. It returns the number of entries applied.
//
// Per §2.4 a reverse composite reference records only the parent UID and
// the D/X flags, not the attribute it arose from; like the paper's
// implementation, matching is therefore by the parent's class (the entry's
// owner class C' or a subclass).
func (c *Catalog) ApplyPending(className string, o *object.Object) int {
	entries := c.Pending(className, o.CC())
	if len(entries) == 0 {
		return 0
	}
	for _, e := range entries {
		for _, r := range append([]object.ReverseRef(nil), o.Reverse()...) {
			pc, err := c.ClassByID(r.Parent.Class)
			if err != nil || !c.IsA(pc.Name, e.OwnerClass) {
				continue
			}
			switch e.Kind {
			case ChangeDropComposite:
				o.RemoveReverse(r.Parent)
			case ChangeToShared:
				o.SetReverseFlags(r.Parent, r.Dependent, false)
			case ChangeToIndependent:
				o.SetReverseFlags(r.Parent, false, r.Exclusive)
			case ChangeToDependent:
				o.SetReverseFlags(r.Parent, true, r.Exclusive)
			}
		}
	}
	o.SetCC(entries[len(entries)-1].CC)
	return len(entries)
}

// AddAttribute appends a new own attribute to the class.
func (c *Catalog) AddAttribute(name string, spec AttrSpec) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.version.Add(1)
	cl, err := c.classLocked(name)
	if err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	attrs, err := c.attributesLocked(name, map[string]bool{})
	if err != nil {
		return err
	}
	for _, a := range attrs {
		if a.Name == spec.Name {
			return fmt.Errorf("%q.%q: %w", name, spec.Name, ErrDupAttr)
		}
	}
	if spec.Domain.Kind == DomainClass {
		if _, ok := c.classes[spec.Domain.Class]; !ok {
			return fmt.Errorf("domain %q: %w", spec.Domain.Class, ErrNoClass)
		}
	}
	cl.Own = append(cl.Own, spec)
	return nil
}

// DropAttribute removes attr from the class that defines it (§4.1 change
// 1). Dropping an attribute inherited by name is an error; ORION requires
// the change on the defining class, whence it propagates to all
// subclasses automatically. The removed spec is returned so the engine can
// delete dependent components per the Deletion Rule.
func (c *Catalog) DropAttribute(name, attr string) (AttrSpec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.version.Add(1)
	cl, err := c.classLocked(name)
	if err != nil {
		return AttrSpec{}, err
	}
	for i := range cl.Own {
		if cl.Own[i].Name == attr {
			spec := cl.Own[i]
			cl.Own = append(cl.Own[:i], cl.Own[i+1:]...)
			return spec, nil
		}
	}
	if _, _, err := c.definingClassLocked(name, attr); err == nil {
		return AttrSpec{}, fmt.Errorf("%q.%q: %w", name, attr, ErrInherited)
	}
	return AttrSpec{}, fmt.Errorf("%q.%q: %w", name, attr, ErrNoAttr)
}

// RenameAttribute renames attr of the class that defines it (part of the
// [BANE87b] taxonomy the paper builds on). The engine renames the stored
// values in all instances; renaming an inherited attribute is rejected as
// with DropAttribute.
func (c *Catalog) RenameAttribute(name, attr, newName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.version.Add(1)
	cl, err := c.classLocked(name)
	if err != nil {
		return err
	}
	if newName == "" {
		return fmt.Errorf("schema: empty new attribute name")
	}
	if attrs, err := c.attributesLocked(name, map[string]bool{}); err == nil {
		for _, a := range attrs {
			if a.Name == newName {
				return fmt.Errorf("%q.%q: %w", name, newName, ErrDupAttr)
			}
		}
	}
	for i := range cl.Own {
		if cl.Own[i].Name == attr {
			cl.Own[i].Name = newName
			return nil
		}
	}
	if _, _, err := c.definingClassLocked(name, attr); err == nil {
		return fmt.Errorf("%q.%q: %w", name, attr, ErrInherited)
	}
	return fmt.Errorf("%q.%q: %w", name, attr, ErrNoAttr)
}

// AddSuperclass appends super to name's superclass list (§4.1: changes to
// the IS-A lattice), rejecting cycles.
func (c *Catalog) AddSuperclass(name, super string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.version.Add(1)
	cl, err := c.classLocked(name)
	if err != nil {
		return err
	}
	if _, err := c.classLocked(super); err != nil {
		return err
	}
	for _, s := range cl.Superclasses {
		if s == super {
			return nil
		}
	}
	if c.isALocked(super, name, map[string]bool{}) {
		return fmt.Errorf("%q <- %q: %w", name, super, ErrCycle)
	}
	cl.Superclasses = append(cl.Superclasses, super)
	return nil
}

// RemoveSuperclass removes super from name's superclass list (§4.1 change
// 3) and returns the attribute specs that name loses as a result: those it
// inherited from super that are not also available through another
// superclass or its own list. The engine uses the composite specs among
// them to cascade deletions.
func (c *Catalog) RemoveSuperclass(name, super string) ([]AttrSpec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.version.Add(1)
	cl, err := c.classLocked(name)
	if err != nil {
		return nil, err
	}
	idx := -1
	for i, s := range cl.Superclasses {
		if s == super {
			idx = i
			break
		}
	}
	if idx == -1 {
		return nil, fmt.Errorf("%q is not a superclass of %q: %w", super, name, ErrNotSuper)
	}
	before, err := c.attributesLocked(name, map[string]bool{})
	if err != nil {
		return nil, err
	}
	cl.Superclasses = append(cl.Superclasses[:idx], cl.Superclasses[idx+1:]...)
	after, err := c.attributesLocked(name, map[string]bool{})
	if err != nil {
		return nil, err
	}
	remain := map[string]bool{}
	for _, a := range after {
		remain[a.Name] = true
	}
	var lost []AttrSpec
	for _, a := range before {
		if !remain[a.Name] {
			lost = append(lost, a)
		}
	}
	return lost, nil
}

// CanDropClass reports whether DropClass would succeed: the class exists
// and is not the domain of any other class's attribute. The engine checks
// this before deleting the class's instances.
func (c *Catalog) CanDropClass(name string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, err := c.classLocked(name); err != nil {
		return err
	}
	return c.domainUsageLocked(name)
}

func (c *Catalog) domainUsageLocked(name string) error {
	for _, other := range c.classes {
		if other.Name == name {
			continue
		}
		for _, a := range other.Own {
			if a.Domain.Kind == DomainClass && a.Domain.Class == name {
				return fmt.Errorf("schema: class %q is the domain of %q.%q; drop that attribute first", name, other.Name, a.Name)
			}
		}
	}
	return nil
}

// DropClass removes the class from the lattice (§4.1 change 4): all its
// subclasses become immediate subclasses of its superclasses. It returns
// the dropped class; the engine is responsible for deleting its instances
// (cascading per the Deletion Rule) before calling this. Dropping a class
// that is the domain of another class's attribute is rejected to keep the
// catalog referentially sound.
func (c *Catalog) DropClass(name string) (*Class, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.version.Add(1)
	cl, err := c.classLocked(name)
	if err != nil {
		return nil, err
	}
	if err := c.domainUsageLocked(name); err != nil {
		return nil, err
	}
	subs := c.subclassesLocked(name)
	for _, sn := range subs {
		sub := c.classes[sn]
		var nl []string
		for _, s := range sub.Superclasses {
			if s != name {
				nl = append(nl, s)
			}
		}
		// Inherit the dropped class's superclasses in its place.
		for _, s := range cl.Superclasses {
			dup := false
			for _, have := range nl {
				if have == s {
					dup = true
					break
				}
			}
			if !dup {
				nl = append(nl, s)
			}
		}
		sub.Superclasses = nl
	}
	delete(c.classes, name)
	delete(c.byID, cl.ID)
	delete(c.logs, name)
	return cl, nil
}
