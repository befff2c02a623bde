// Package object defines the in-memory representation of objects: dynamic
// attribute records plus the reverse composite references of §2.4 of the
// paper.
//
// The paper's implementation decision (§2.4) is to store, in each
// component of a composite object, a list of reverse composite references
// — the UIDs of its parents, each carrying two flags: D (the component is
// dependent on that parent) and X (the component is an exclusive component
// of that parent). Keeping the reverse pointers inside the object avoids a
// level of indirection when finding parents and simplifies deletion and
// migration, at the cost of larger objects. The bench harness quantifies
// that trade-off against an external-index alternative.
package object

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/uid"
	"repro/internal/value"
)

// ReverseRef is a reverse composite reference: "some parent references me
// through a composite attribute". For reverse composite *generic*
// references (between generic instances of versionable objects, §5.3) the
// Count field tracks how many version-level composite references the
// generic-level reference summarizes; for ordinary reverse references
// Count is 0 and unused.
type ReverseRef struct {
	Parent    uid.UID
	Dependent bool   // the paper's D flag
	Exclusive bool   // the paper's X flag
	Count     uint32 // ref-count, used only for reverse composite generic references
}

// String renders the reverse reference with its flags, e.g. "3:7[DX]".
func (r ReverseRef) String() string {
	flags := ""
	if r.Dependent {
		flags += "D"
	} else {
		flags += "I"
	}
	if r.Exclusive {
		flags += "X"
	} else {
		flags += "S"
	}
	s := r.Parent.String() + "[" + flags + "]"
	if r.Count > 0 {
		s += fmt.Sprintf("(rc=%d)", r.Count)
	}
	return s
}

// Object is a dynamic record: a UID, a set of attribute values interpreted
// against the schema catalog, the reverse composite references of its
// parents, and a change-count stamp (CC) used by deferred schema evolution
// (§4.3).
//
// Attributes are keyed by name, not by the class's attribute order: under
// deferred evolution an object's stored shape may lag its class, so the
// record must describe itself. They are kept in a slice sorted by name
// (few per object, so a binary search beats a map and costs a fraction of
// its memory); no entry holds Nil.
type Object struct {
	uid     uid.UID
	attrs   []attr
	reverse []ReverseRef
	cc      uint64
}

type attr struct {
	name string
	val  value.Value
}

// New returns an empty object with the given UID.
func New(u uid.UID) *Object {
	return &Object{uid: u}
}

// UID returns the object's identifier.
func (o *Object) UID() uid.UID { return o.uid }

// Class returns the class component of the object's UID.
func (o *Object) Class() uid.ClassID { return o.uid.Class }

// find returns the position of the named attribute in o.attrs, or the
// position where it would be inserted, and whether it is present.
func (o *Object) find(name string) (int, bool) {
	lo, hi := 0, len(o.attrs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if o.attrs[m].name < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(o.attrs) && o.attrs[lo].name == name
}

// Get returns the value of the named attribute (Nil if unset).
func (o *Object) Get(name string) value.Value {
	if i, ok := o.find(name); ok {
		return o.attrs[i].val
	}
	return value.Nil
}

// Set stores v under the named attribute. Setting Nil clears it.
func (o *Object) Set(name string, v value.Value) {
	if v.IsNil() {
		o.Unset(name)
		return
	}
	i, ok := o.find(name)
	if ok {
		o.attrs[i].val = v
		return
	}
	o.attrs = append(o.attrs, attr{})
	copy(o.attrs[i+1:], o.attrs[i:])
	o.attrs[i] = attr{name: name, val: v}
}

// Unset removes the named attribute.
func (o *Object) Unset(name string) {
	if i, ok := o.find(name); ok {
		n := len(o.attrs) - 1
		copy(o.attrs[i:], o.attrs[i+1:])
		o.attrs[n] = attr{} // the vacated tail must not keep its value alive
		o.attrs = o.attrs[:n]
	}
}

// Has reports whether the named attribute is set.
func (o *Object) Has(name string) bool {
	_, ok := o.find(name)
	return ok
}

// AttrNames returns the set attribute names in sorted order.
func (o *Object) AttrNames() []string {
	names := make([]string, len(o.attrs))
	for i, a := range o.attrs {
		names[i] = a.name
	}
	return names
}

// NumAttrs returns the number of set attributes.
func (o *Object) NumAttrs() int { return len(o.attrs) }

// Each calls f with every set attribute in name order. f must not change
// o's attributes.
func (o *Object) Each(f func(name string, v value.Value)) {
	for _, a := range o.attrs {
		f(a.name, a.val)
	}
}

// RenameAttr moves the value stored under old to new, if present. It is
// used by schema evolution when an attribute is renamed.
func (o *Object) RenameAttr(old, new string) {
	if i, ok := o.find(old); ok {
		v := o.attrs[i].val
		o.Unset(old)
		o.Set(new, v)
	}
}

// CC returns the object's change-count stamp (§4.3).
func (o *Object) CC() uint64 { return o.cc }

// SetCC updates the change-count stamp.
func (o *Object) SetCC(cc uint64) { o.cc = cc }

// Reverse returns the reverse composite references. The caller must not
// mutate the returned slice.
func (o *Object) Reverse() []ReverseRef { return o.reverse }

// FindReverse returns the index of the reverse reference from parent, or
// -1 if none exists.
func (o *Object) FindReverse(parent uid.UID) int {
	for i, r := range o.reverse {
		if r.Parent == parent {
			return i
		}
	}
	return -1
}

// HasReverse reports whether parent holds a composite reference to o.
func (o *Object) HasReverse(parent uid.UID) bool { return o.FindReverse(parent) >= 0 }

// AddReverse inserts a reverse composite reference. If a reverse reference
// from the same parent already exists it is overwritten (flags updated)
// and its Count preserved.
func (o *Object) AddReverse(r ReverseRef) {
	if i := o.FindReverse(r.Parent); i >= 0 {
		if r.Count == 0 {
			r.Count = o.reverse[i].Count
		}
		o.reverse[i] = r
		return
	}
	o.reverse = append(o.reverse, r)
}

// RemoveReverse deletes the reverse reference from parent; it reports
// whether one was present.
func (o *Object) RemoveReverse(parent uid.UID) bool {
	if i := o.FindReverse(parent); i >= 0 {
		o.reverse = append(o.reverse[:i], o.reverse[i+1:]...)
		return true
	}
	return false
}

// SetReverseFlags updates the D and/or X flag of the reverse reference
// from parent, used by schema evolution's immediate flag rewrites
// (§4.3 I2–I4). It reports whether the reference existed.
func (o *Object) SetReverseFlags(parent uid.UID, dependent, exclusive bool) bool {
	if i := o.FindReverse(parent); i >= 0 {
		o.reverse[i].Dependent = dependent
		o.reverse[i].Exclusive = exclusive
		return true
	}
	return false
}

// Partition sets of Definition 1 (§2.2): the parents of o split by
// reference type.

// IX returns the parents holding independent exclusive composite
// references to o.
func (o *Object) IX() []uid.UID { return o.parentsWhere(false, true) }

// DX returns the parents holding dependent exclusive composite references.
func (o *Object) DX() []uid.UID { return o.parentsWhere(true, true) }

// IS returns the parents holding independent shared composite references.
func (o *Object) IS() []uid.UID { return o.parentsWhere(false, false) }

// DS returns the parents holding dependent shared composite references.
func (o *Object) DS() []uid.UID { return o.parentsWhere(true, false) }

func (o *Object) parentsWhere(dep, excl bool) []uid.UID {
	var out []uid.UID
	for _, r := range o.reverse {
		if r.Dependent == dep && r.Exclusive == excl {
			out = append(out, r.Parent)
		}
	}
	return out
}

// HasExclusiveReverse reports whether any parent holds an exclusive
// composite reference to o (the X-flag check of the Make-Component
// algorithm, §2.4).
func (o *Object) HasExclusiveReverse() bool {
	for _, r := range o.reverse {
		if r.Exclusive {
			return true
		}
	}
	return false
}

// HasAnyReverse reports whether o has any composite reference to it.
func (o *Object) HasAnyReverse() bool { return len(o.reverse) > 0 }

// Parents returns all composite parents in insertion order.
func (o *Object) Parents() []uid.UID {
	out := make([]uid.UID, len(o.reverse))
	for i, r := range o.reverse {
		out[i] = r.Parent
	}
	return out
}

// Refs returns every UID referenced from o's attributes (weak and
// composite alike), deduplicated and sorted.
func (o *Object) Refs() []uid.UID {
	var all []uid.UID
	for _, a := range o.attrs {
		all = a.val.Refs(all)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
	out := all[:0]
	var prev uid.UID
	for i, r := range all {
		if i == 0 || r != prev {
			out = append(out, r)
		}
		prev = r
	}
	return out
}

// Clone returns a copy of o that shares no mutable state with it. Values
// are immutable, so the copy shares them.
func (o *Object) Clone() *Object {
	c := o.CloneAs(o.uid)
	c.cc = o.cc
	c.reverse = append([]ReverseRef(nil), o.reverse...)
	return c
}

// CloneAs returns a copy of o under a new UID with no reverse references,
// used by version derivation (the copy starts with no parents of its own).
func (o *Object) CloneAs(nu uid.UID) *Object {
	return &Object{uid: nu, attrs: append([]attr(nil), o.attrs...)}
}

// String renders the object for debugging and figures.
func (o *Object) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%s{", o.uid)
	for i, a := range o.attrs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%s", a.name, a.val)
	}
	if len(o.reverse) > 0 {
		b.WriteString(" <=")
		for _, r := range o.reverse {
			b.WriteString(" " + r.String())
		}
	}
	b.WriteString("}")
	return b.String()
}
