// Package index maintains secondary indexes over attribute values —
// the associative-access substrate ORION pairs with its query model.
// An index on (class, attribute) maps each scalar value (or each element
// of a set-valued attribute) to the instances holding it; instances of
// subclasses are included, matching the class-hierarchy extent semantics
// of queries.
//
// Maintenance is driven by the engine's publish hook: install the Manager
// with core.Engine.SetPublishHook and every commit boundary keeps the
// indexes current, so they hold committed values only — a lookup never
// sees a write of an open transaction, and an abort has nothing to undo.
// Indexes are in-memory and rebuilt on database open (Build), like
// ORION's memory-resident access structures.
package index

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/uid"
	"repro/internal/value"
)

// Sentinel errors.
var (
	ErrDupIndex = errors.New("index: index already exists")
	ErrNoIndex  = errors.New("index: no such index")
)

// ikey identifies an index.
type ikey struct {
	class string
	attr  string
}

// vkey is the canonical map key of an indexed value: the kind tag keeps
// Int(5) and Real(5) (both rendering "5") distinct.
func vkey(v value.Value) string {
	return fmt.Sprintf("%d|%s", v.Kind(), v.String())
}

// idx is one index: value key -> posting set.
type idx struct {
	postings map[string]*uid.Set
	// perObject remembers what each object last contributed, so updates
	// can remove stale entries without needing the before-image.
	perObject map[uid.UID][]string
}

func newIdx() *idx {
	return &idx{
		postings:  make(map[string]*uid.Set),
		perObject: make(map[uid.UID][]string),
	}
}

func (x *idx) remove(id uid.UID) {
	for _, k := range x.perObject[id] {
		if s := x.postings[k]; s != nil {
			s.Remove(id)
			if s.Len() == 0 {
				delete(x.postings, k)
			}
		}
	}
	delete(x.perObject, id)
}

func (x *idx) put(id uid.UID, keys []string) {
	x.remove(id)
	for _, k := range keys {
		s := x.postings[k]
		if s == nil {
			s = uid.NewSet()
			x.postings[k] = s
		}
		s.Add(id)
	}
	if len(keys) > 0 {
		x.perObject[id] = keys
	}
}

// Manager owns the indexes of one engine. It implements core.Hook, as the
// engine's publish hook.
type Manager struct {
	mu      sync.RWMutex
	e       *core.Engine
	indexes map[ikey]*idx
}

// NewManager returns an empty index manager.
func NewManager(e *core.Engine) *Manager {
	return &Manager{e: e, indexes: make(map[ikey]*idx)}
}

// keysFor extracts the index keys an object contributes for attr.
func keysFor(o *object.Object, attr string) []string {
	v := o.Get(attr)
	if v.IsNil() {
		return nil
	}
	if v.IsCollection() {
		keys := make([]string, 0, v.Len())
		for _, e := range v.Elems() {
			keys = append(keys, vkey(e))
		}
		return keys
	}
	return []string{vkey(v)}
}

// CreateIndex builds an index on (class, attr), populating it from the
// current extent of class and its subclasses.
func (m *Manager) CreateIndex(class, attr string) error {
	if _, err := m.e.Catalog().Attribute(class, attr); err != nil {
		return err
	}
	k := ikey{class, attr}
	m.mu.Lock()
	if _, ok := m.indexes[k]; ok {
		m.mu.Unlock()
		return fmt.Errorf("%s.%s: %w", class, attr, ErrDupIndex)
	}
	x := newIdx()
	m.indexes[k] = x
	m.mu.Unlock()
	return m.Build(class, attr)
}

// Build (re)populates an index from the committed instances. It holds
// the engine's shared latch while it does (core.Engine.Instances), so no
// publication interleaves: the one before it is in the instances, the
// one after it reaches OnWrite once the index is rebuilt.
func (m *Manager) Build(class, attr string) error {
	k := ikey{class, attr}
	return m.e.Instances(class, func(objs []*object.Object) error {
		m.mu.Lock()
		defer m.mu.Unlock()
		x, ok := m.indexes[k]
		if !ok {
			return fmt.Errorf("%s.%s: %w", class, attr, ErrNoIndex)
		}
		*x = *newIdx()
		for _, o := range objs {
			x.put(o.UID(), keysFor(o, attr))
		}
		return nil
	})
}

// DropIndex removes the index.
func (m *Manager) DropIndex(class, attr string) error {
	k := ikey{class, attr}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.indexes[k]; !ok {
		return fmt.Errorf("%s.%s: %w", class, attr, ErrNoIndex)
	}
	delete(m.indexes, k)
	return nil
}

// Has reports whether an index exists on (class, attr).
func (m *Manager) Has(class, attr string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.indexes[ikey{class, attr}]
	return ok
}

// Lookup returns the instances of class (or subclasses) whose attr equals
// v, in UID order.
func (m *Manager) Lookup(class, attr string, v value.Value) ([]uid.UID, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	x, ok := m.indexes[ikey{class, attr}]
	if !ok {
		return nil, fmt.Errorf("%s.%s: %w", class, attr, ErrNoIndex)
	}
	s := x.postings[vkey(v)]
	out := append([]uid.UID(nil), s.Slice()...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// OnWrite implements core.Hook: refresh every index the published object
// participates in.
func (m *Manager) OnWrite(_ core.TxnID, o *object.Object) error {
	cl, err := m.e.Catalog().ClassByID(o.Class())
	if err != nil {
		return nil // class dropped mid-flight; nothing to index
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, x := range m.indexes {
		if !m.e.Catalog().IsA(cl.Name, k.class) {
			continue
		}
		x.put(o.UID(), keysFor(o, k.attr))
	}
	return nil
}

// OnDelete implements core.Hook.
func (m *Manager) OnDelete(_ core.TxnID, id uid.UID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, x := range m.indexes {
		x.remove(id)
	}
	return nil
}

// Stats returns (entries, distinct values) for an index.
func (m *Manager) Stats(class, attr string) (objects, values int, err error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	x, ok := m.indexes[ikey{class, attr}]
	if !ok {
		return 0, 0, fmt.Errorf("%s.%s: %w", class, attr, ErrNoIndex)
	}
	return len(x.perObject), len(x.postings), nil
}
