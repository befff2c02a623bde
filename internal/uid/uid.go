// Package uid defines object identifiers (UIDs) for the composite-object
// store. Following ORION, a UID is a pair of a class identifier and a
// serial number unique within the class; the pair is globally unique and
// never reused. UIDs are value types and are valid map keys.
package uid

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// ClassID identifies a class in the schema catalog.
type ClassID uint32

// UID is a globally unique object identifier. The zero value is Nil.
type UID struct {
	// Class is the class the object was created in. It is part of the
	// identity so that the kernel can locate an object's class without a
	// directory lookup, as in ORION.
	Class ClassID
	// Serial is unique within the class and never reused.
	Serial uint64
}

// Nil is the zero UID, used to represent a null reference.
var Nil = UID{}

// IsNil reports whether u is the null reference.
func (u UID) IsNil() bool { return u == Nil }

// String renders a UID as "class:serial", or "nil" for the null reference.
func (u UID) String() string { return string(u.AppendText(nil)) }

// AppendText appends the String form of u to dst and returns the
// extended slice.
func (u UID) AppendText(dst []byte) []byte {
	if u.IsNil() {
		return append(dst, "nil"...)
	}
	dst = strconv.AppendUint(dst, uint64(u.Class), 10)
	return strconv.AppendUint(append(dst, ':'), u.Serial, 10)
}

// MarshalText encodes the UID as "class:serial" (or "nil"), making UIDs
// usable as JSON map keys in persisted metadata.
func (u UID) MarshalText() ([]byte, error) {
	return u.AppendText(nil), nil
}

// UnmarshalText decodes the representation produced by MarshalText.
func (u *UID) UnmarshalText(b []byte) error {
	s := string(b)
	if s == "nil" {
		*u = Nil
		return nil
	}
	var c uint32
	var n uint64
	if _, err := fmt.Sscanf(s, "%d:%d", &c, &n); err != nil {
		return fmt.Errorf("uid: parse %q: %w", s, err)
	}
	*u = UID{Class: ClassID(c), Serial: n}
	return nil
}

// Less imposes a total order on UIDs (class-major), used to produce
// deterministic iteration orders in query results and figures.
func (u UID) Less(v UID) bool {
	if u.Class != v.Class {
		return u.Class < v.Class
	}
	return u.Serial < v.Serial
}

// Compare returns -1, 0, or +1 per the Less order.
func (u UID) Compare(v UID) int {
	switch {
	case u == v:
		return 0
	case u.Less(v):
		return -1
	default:
		return 1
	}
}

// Generator allocates fresh UIDs. It is safe for concurrent use.
type Generator struct {
	next atomic.Uint64
}

// NewGenerator returns a Generator whose first serial is 1 (serial 0 is
// reserved for Nil).
func NewGenerator() *Generator {
	return &Generator{}
}

// Next returns a fresh UID in class c.
func (g *Generator) Next(c ClassID) UID {
	return UID{Class: c, Serial: g.next.Add(1)}
}

// Seed advances the generator so that all subsequently issued serials are
// greater than n. It is used when reopening a database from disk.
func (g *Generator) Seed(n uint64) {
	for {
		cur := g.next.Load()
		if cur >= n {
			return
		}
		if g.next.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Current returns the highest serial issued so far.
func (g *Generator) Current() uint64 { return g.next.Load() }

// Set is an ordered collection of unique UIDs with O(1) membership.
// The zero value is an empty set ready to use for membership tests;
// call Add to populate.
type Set struct {
	order []UID
	index map[UID]int
}

// NewSet returns a Set containing the given UIDs (duplicates ignored).
func NewSet(us ...UID) *Set {
	s := &Set{}
	for _, u := range us {
		s.Add(u)
	}
	return s
}

// Add inserts u; it reports whether u was newly added.
func (s *Set) Add(u UID) bool {
	if s.index == nil {
		s.index = make(map[UID]int)
	}
	if _, ok := s.index[u]; ok {
		return false
	}
	s.index[u] = len(s.order)
	s.order = append(s.order, u)
	return true
}

// Remove deletes u in O(1) by swapping the last element into its slot;
// after a Remove, Slice order is no longer insertion order. Mass
// deletions (the Deletion Rule cascading over large extents) rely on this
// being constant time.
func (s *Set) Remove(u UID) bool {
	if s.index == nil {
		return false
	}
	i, ok := s.index[u]
	if !ok {
		return false
	}
	delete(s.index, u)
	last := len(s.order) - 1
	if i != last {
		s.order[i] = s.order[last]
		s.index[s.order[i]] = i
	}
	s.order = s.order[:last]
	return true
}

// Contains reports whether u is in the set.
func (s *Set) Contains(u UID) bool {
	if s == nil || s.index == nil {
		return false
	}
	_, ok := s.index[u]
	return ok
}

// Len returns the number of elements.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.order)
}

// Slice returns the elements in insertion order. The caller must not
// mutate the returned slice.
func (s *Set) Slice() []UID {
	if s == nil {
		return nil
	}
	return s.order
}
