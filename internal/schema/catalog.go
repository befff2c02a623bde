package schema

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/uid"
	"repro/internal/value"
)

// Sentinel errors for catalog operations.
var (
	ErrDupClass       = errors.New("schema: class already defined")
	ErrNoClass        = errors.New("schema: no such class")
	ErrNoAttr         = errors.New("schema: no such attribute")
	ErrDupAttr        = errors.New("schema: duplicate attribute")
	ErrCycle          = errors.New("schema: superclass cycle")
	ErrNotSuper       = errors.New("schema: not a superclass")
	ErrInherited      = errors.New("schema: attribute is inherited; modify the defining class")
	ErrDomainMismatch = errors.New("schema: value does not match attribute domain")
)

// Class is a class metaobject. Fields are immutable through this struct;
// all mutation goes through Catalog methods, which hold the catalog lock.
type Class struct {
	ID           uid.ClassID
	Name         string
	Superclasses []string // in declaration order (matters for conflict resolution)
	Own          []AttrSpec
	Versionable  bool
	Doc          string
}

// ClassDef is the input to DefineClass: the paper's make-class message.
type ClassDef struct {
	Name         string
	Superclasses []string
	Attributes   []AttrSpec
	Versionable  bool
	Doc          string
}

// Catalog is the schema: the set of classes and the class lattice, plus
// the operation logs that drive deferred schema evolution. It is safe for
// concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	classes map[string]*Class
	byID    map[uid.ClassID]*Class
	nextID  uid.ClassID
	logs    map[string]*OpLog // domain-class name -> pending attribute-type changes
	// globalCC is the catalog-wide change counter for deferred evolution.
	// The paper keeps one CC per domain class; a single monotonic counter
	// subsumes that (per-class counts are recoverable by filtering the
	// logs) and lets an instance carry one stamp even when changes arrive
	// through several superclasses.
	globalCC uint64
	// version counts catalog mutations of any kind (class definitions,
	// attribute changes, lattice edits, reloads). Read-path plan caches
	// key their validity on it; unlike globalCC it advances for changes
	// that deferred evolution does not log.
	version atomic.Uint64
}

// Version returns the catalog mutation counter. It advances (at least)
// once per successful or attempted catalog mutation, so any cached
// derivation of the schema is stale whenever the counter moved. A
// mutation advances it before releasing the catalog lock: a reader that
// sees the same version before and after reading the schema read that
// version's schema.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		classes: make(map[string]*Class),
		byID:    make(map[uid.ClassID]*Class),
		nextID:  1,
		logs:    make(map[string]*OpLog),
	}
}

// Clone returns a deep, independent copy of the catalog frozen at the
// current version: later mutations of the original are invisible to the
// clone and vice versa. Snapshots pin a clone at BeginSnapshot so their
// query plans keep answering with the schema that was live at the
// snapshot's commit boundary (§4 semantics extended to the catalog).
func (c *Catalog) Clone() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := &Catalog{
		classes: make(map[string]*Class, len(c.classes)),
		byID:    make(map[uid.ClassID]*Class, len(c.byID)),
		nextID:  c.nextID,
		logs:    make(map[string]*OpLog, len(c.logs)),
	}
	for name, cl := range c.classes {
		cc := *cl
		cc.Superclasses = append([]string(nil), cl.Superclasses...)
		cc.Own = append([]AttrSpec(nil), cl.Own...)
		out.classes[name] = &cc
		out.byID[cc.ID] = &cc
	}
	for name, l := range c.logs {
		out.logs[name] = &OpLog{Entries: append([]LogEntry(nil), l.Entries...)}
	}
	out.globalCC = c.globalCC
	out.version.Store(c.version.Load())
	return out
}

// DefineClass adds a class per the make-class message. Superclasses must
// already exist; attribute names may not collide with one another (they
// may shadow inherited attributes, which ORION treats as overriding).
func (c *Catalog) DefineClass(def ClassDef) (*Class, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.version.Add(1)
	if def.Name == "" {
		return nil, fmt.Errorf("schema: class with empty name")
	}
	if _, ok := c.classes[def.Name]; ok {
		return nil, fmt.Errorf("%q: %w", def.Name, ErrDupClass)
	}
	seen := map[string]bool{}
	for _, a := range def.Attributes {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("%q.%q: %w", def.Name, a.Name, ErrDupAttr)
		}
		seen[a.Name] = true
		if a.Domain.Kind == DomainClass {
			if _, ok := c.classes[a.Domain.Class]; !ok && a.Domain.Class != def.Name {
				return nil, fmt.Errorf("attribute %q domain %q: %w", a.Name, a.Domain.Class, ErrNoClass)
			}
		}
	}
	for _, s := range def.Superclasses {
		if _, ok := c.classes[s]; !ok {
			return nil, fmt.Errorf("superclass %q: %w", s, ErrNoClass)
		}
	}
	cl := &Class{
		ID:           c.nextID,
		Name:         def.Name,
		Superclasses: append([]string(nil), def.Superclasses...),
		Own:          append([]AttrSpec(nil), def.Attributes...),
		Versionable:  def.Versionable,
		Doc:          def.Doc,
	}
	c.nextID++
	c.classes[cl.Name] = cl
	c.byID[cl.ID] = cl
	return cl, nil
}

// Class returns the class metaobject for name.
func (c *Catalog) Class(name string) (*Class, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.classLocked(name)
}

func (c *Catalog) classLocked(name string) (*Class, error) {
	cl, ok := c.classes[name]
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrNoClass)
	}
	return cl, nil
}

// ClassByID returns the class with the given ID.
func (c *Catalog) ClassByID(id uid.ClassID) (*Class, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.byID[id]
	if !ok {
		return nil, fmt.Errorf("class id %d: %w", id, ErrNoClass)
	}
	return cl, nil
}

// Has reports whether the class exists.
func (c *Catalog) Has(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.classes[name]
	return ok
}

// ClassNames returns all class names, sorted.
func (c *Catalog) ClassNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.classes))
	for n := range c.classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsA reports whether sub is name or a (transitive) subclass of super.
func (c *Catalog) IsA(sub, super string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.isALocked(sub, super, map[string]bool{})
}

func (c *Catalog) isALocked(sub, super string, seen map[string]bool) bool {
	if sub == super {
		return true
	}
	if seen[sub] {
		return false
	}
	seen[sub] = true
	cl, ok := c.classes[sub]
	if !ok {
		return false
	}
	for _, s := range cl.Superclasses {
		if c.isALocked(s, super, seen) {
			return true
		}
	}
	return false
}

// Subclasses returns the direct subclasses of name, sorted.
func (c *Catalog) Subclasses(name string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.subclassesLocked(name)
}

func (c *Catalog) subclassesLocked(name string) []string {
	var out []string
	for _, cl := range c.classes {
		for _, s := range cl.Superclasses {
			if s == name {
				out = append(out, cl.Name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// AllSubclasses returns name plus every transitive subclass, sorted.
func (c *Catalog) AllSubclasses(name string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	seen := map[string]bool{}
	var walk func(n string)
	walk = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, s := range c.subclassesLocked(n) {
			walk(s)
		}
	}
	walk(name)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Attributes returns the effective attributes of the class: its own
// attributes followed by attributes inherited from superclasses in
// declaration order, with name conflicts resolved in favor of the first
// definition encountered (own attributes shadow inherited ones; earlier
// superclasses shadow later ones) — ORION's conflict-resolution rule.
func (c *Catalog) Attributes(name string) ([]AttrSpec, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.attributesLocked(name, map[string]bool{})
}

func (c *Catalog) attributesLocked(name string, visiting map[string]bool) ([]AttrSpec, error) {
	cl, err := c.classLocked(name)
	if err != nil {
		return nil, err
	}
	if visiting[name] {
		return nil, fmt.Errorf("%q: %w", name, ErrCycle)
	}
	visiting[name] = true
	defer delete(visiting, name)
	var out []AttrSpec
	have := map[string]bool{}
	for _, a := range cl.Own {
		out = append(out, a)
		have[a.Name] = true
	}
	for _, s := range cl.Superclasses {
		inherited, err := c.attributesLocked(s, visiting)
		if err != nil {
			return nil, err
		}
		for _, a := range inherited {
			if !have[a.Name] {
				out = append(out, a)
				have[a.Name] = true
			}
		}
	}
	return out, nil
}

// Attribute returns the effective attribute attr of class name: the
// one Attributes would list, found without building the list.
func (c *Catalog) Attribute(name, attr string) (AttrSpec, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, a, err := c.definingClassLocked(name, attr)
	if err != nil {
		return AttrSpec{}, err
	}
	return *a, nil
}

// DefiningClass returns the class (name itself or an ancestor) whose own
// attributes carry attr, or name when attr is empty.
func (c *Catalog) DefiningClass(name, attr string) (string, error) {
	if attr == "" {
		return name, nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, _, err := c.definingClassLocked(name, attr)
	if err != nil {
		return name, err
	}
	return cl.Name, nil
}

// definingClassLocked returns the class (name itself or an ancestor)
// whose Own list carries attr, and that entry, following the same
// conflict-resolution order as Attributes. Caller holds at least the
// read lock.
func (c *Catalog) definingClassLocked(name, attr string) (*Class, *AttrSpec, error) {
	cl, err := c.classLocked(name)
	if err != nil {
		return nil, nil, err
	}
	for i := range cl.Own {
		if cl.Own[i].Name == attr {
			return cl, &cl.Own[i], nil
		}
	}
	for _, s := range cl.Superclasses {
		if def, a, err := c.definingClassLocked(s, attr); err == nil {
			return def, a, nil
		}
	}
	return nil, nil, fmt.Errorf("%q.%q: %w", name, attr, ErrNoAttr)
}

// Predicates of §3.2. Each takes an optional attribute name: with the
// attribute, it tests that attribute; without, it tests whether the class
// has at least one attribute with the property.

// Compositep implements (compositep Class [AttributeName]).
func (c *Catalog) Compositep(name string, attr ...string) (bool, error) {
	return c.predicate(name, attr, func(a AttrSpec) bool { return a.Composite })
}

// ExclusiveCompositep implements (exclusive-compositep Class [Attr]).
func (c *Catalog) ExclusiveCompositep(name string, attr ...string) (bool, error) {
	return c.predicate(name, attr, func(a AttrSpec) bool { return a.Composite && a.Exclusive })
}

// SharedCompositep implements (shared-compositep Class [Attr]).
func (c *Catalog) SharedCompositep(name string, attr ...string) (bool, error) {
	return c.predicate(name, attr, func(a AttrSpec) bool { return a.Composite && !a.Exclusive })
}

// DependentCompositep implements (dependent-compositep Class [Attr]).
func (c *Catalog) DependentCompositep(name string, attr ...string) (bool, error) {
	return c.predicate(name, attr, func(a AttrSpec) bool { return a.Composite && a.Dependent })
}

func (c *Catalog) predicate(name string, attr []string, pred func(AttrSpec) bool) (bool, error) {
	attrs, err := c.Attributes(name)
	if err != nil {
		return false, err
	}
	if len(attr) > 0 && attr[0] != "" {
		for _, a := range attrs {
			if a.Name == attr[0] {
				return pred(a), nil
			}
		}
		return false, fmt.Errorf("%q.%q: %w", name, attr[0], ErrNoAttr)
	}
	for _, a := range attrs {
		if pred(a) {
			return true, nil
		}
	}
	return false, nil
}

// CompositeHierarchy returns the component classes of the composite class
// hierarchy rooted at name (§2.1): every class reachable through composite
// attributes, in BFS order, excluding the root itself unless reached via a
// cycle. Subclasses of a component class are included, since instances of
// subclasses may appear as components.
func (c *Catalog) CompositeHierarchy(name string) ([]string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, err := c.classLocked(name); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	queue := []string{name}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		attrs, err := c.attributesLocked(cur, map[string]bool{})
		if err != nil {
			return nil, err
		}
		for _, a := range attrs {
			if !a.Composite {
				continue
			}
			for _, comp := range c.allSubclassesLocked(a.Domain.Class) {
				if !seen[comp] {
					seen[comp] = true
					out = append(out, comp)
					queue = append(queue, comp)
				}
			}
		}
	}
	return out, nil
}

func (c *Catalog) allSubclassesLocked(name string) []string {
	seen := map[string]bool{}
	var order []string
	var walk func(n string)
	walk = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		order = append(order, n)
		for _, s := range c.subclassesLocked(n) {
			walk(s)
		}
	}
	walk(name)
	sort.Strings(order[1:]) // keep the root first, subclasses sorted
	return order
}

// ValidateValue checks that v is acceptable for attribute attr of class
// name: kind matches the domain, collections only for set-of attributes,
// and references typed by the domain class (subclasses allowed). The class
// of each reference is taken from the UID.
func (c *Catalog) ValidateValue(name, attr string, v value.Value) error {
	a, err := c.Attribute(name, attr)
	if err != nil {
		return err
	}
	if v.IsNil() {
		return nil
	}
	if a.SetOf {
		if !v.IsCollection() {
			return fmt.Errorf("%q.%q wants a set, got %v: %w", name, attr, v.Kind(), ErrDomainMismatch)
		}
		for _, e := range v.Elems() {
			if err := c.validateScalar(name, attr, a, e); err != nil {
				return err
			}
		}
		return nil
	}
	if v.IsCollection() {
		return fmt.Errorf("%q.%q is single-valued, got %v: %w", name, attr, v.Kind(), ErrDomainMismatch)
	}
	return c.validateScalar(name, attr, a, v)
}

func (c *Catalog) validateScalar(name, attr string, a AttrSpec, v value.Value) error {
	if a.Domain.Kind == DomainPrimitive {
		if v.Kind() != a.Domain.Prim {
			return fmt.Errorf("%q.%q wants %v, got %v: %w", name, attr, a.Domain.Prim, v.Kind(), ErrDomainMismatch)
		}
		return nil
	}
	r, ok := v.AsRef()
	if !ok {
		return fmt.Errorf("%q.%q wants a reference to %s, got %v: %w", name, attr, a.Domain.Class, v.Kind(), ErrDomainMismatch)
	}
	rc, err := c.ClassByID(r.Class)
	if err != nil {
		return err
	}
	if !c.IsA(rc.Name, a.Domain.Class) {
		return fmt.Errorf("%q.%q wants %s, got instance of %s: %w", name, attr, a.Domain.Class, rc.Name, ErrDomainMismatch)
	}
	return nil
}
