// Package value implements the dynamic, self-describing values stored in
// object attributes. ORION objects are dynamic records: an attribute's
// value may be a primitive (integer, real, string, boolean), a reference
// to another object (a UID), or a set or list of such values (the paper's
// "set-of" domains). Because Go has no inheritance or dynamic typing, the
// kernel represents attribute values with this tagged union and interprets
// them against the schema catalog.
package value

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"unsafe"

	"repro/internal/uid"
)

// Kind discriminates the representation of a Value.
type Kind uint8

// The value kinds. KindNil is the zero Kind: an unset attribute.
const (
	KindNil Kind = iota
	KindInt
	KindReal
	KindString
	KindBool
	KindRef  // reference to another object by UID
	KindSet  // unordered collection (paper: "set-of" domains)
	KindList // ordered collection
)

// String returns the lowercase kind name.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindInt:
		return "int"
	case KindReal:
		return "real"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindRef:
		return "ref"
	case KindSet:
		return "set"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable dynamic value. The zero Value is Nil. Values are
// compared with Equal: == does not compile on Value.
//
// A Value is 24 bytes. word holds the scalar payload (an int, the bits
// of a float, a bool, a reference's serial) or, for strings and
// collections, the payload length; ptr points at the string's bytes or
// at the first element of a collection, and ref holds a reference's
// class. Strings and element slices are never written after
// construction, so Values share them freely.
type Value struct {
	_    [0]func() // makes == a compile error
	kind Kind
	ref  uid.ClassID
	word uint64
	ptr  unsafe.Pointer
}

// Nil is the null value.
var Nil = Value{}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, word: uint64(i)} }

// Real returns a floating-point value.
func Real(f float64) Value { return Value{kind: KindReal, word: math.Float64bits(f)} }

// Str returns a string value.
func Str(s string) Value {
	if s == "" {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, word: uint64(len(s)), ptr: unsafe.Pointer(unsafe.StringData(s))}
}

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.word = 1
	}
	return v
}

// Ref returns a reference value. Ref(uid.Nil) is the Nil value, so a null
// reference and an unset attribute are indistinguishable, as in ORION.
func Ref(u uid.UID) Value {
	if u.IsNil() {
		return Nil
	}
	return Value{kind: KindRef, ref: u.Class, word: u.Serial}
}

// collection wraps elems, which the caller hands over, as a set or list.
func collection(k Kind, elems []Value) Value {
	if len(elems) == 0 {
		return Value{kind: k}
	}
	return Value{kind: k, word: uint64(len(elems)), ptr: unsafe.Pointer(unsafe.SliceData(elems))}
}

// SetOf returns a set value over the given elements. Duplicate elements
// (by Equal) are dropped; the first occurrence's position is kept so that
// results render deterministically.
func SetOf(elems ...Value) Value { return SetOwned(append([]Value(nil), elems...)) }

// SetOwned is SetOf over a slice the caller hands over: the set keeps
// elems as its storage, dropping duplicates in place, so the caller must
// not use elems afterwards. It saves SetOf's copy for a slice built for
// this one value.
func SetOwned(elems []Value) Value {
	out := elems[:0]
	for _, e := range elems {
		dup := false
		for _, have := range out {
			if have.Equal(e) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e)
		}
	}
	clear(elems[len(out):])
	return collection(KindSet, out)
}

// ListOf returns a list value over the given elements.
func ListOf(elems ...Value) Value { return ListOwned(append([]Value(nil), elems...)) }

// ListOwned is ListOf over a slice the caller hands over: the list keeps
// elems as its storage, so the caller must not write elems afterwards.
func ListOwned(elems []Value) Value { return collection(KindList, elems) }

// RefSet returns a set value of references, a convenience for composite
// set-valued attributes.
func RefSet(us ...uid.UID) Value {
	elems := make([]Value, 0, len(us))
	for _, u := range us {
		if !u.IsNil() {
			elems = append(elems, Ref(u))
		}
	}
	return SetOwned(elems)
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is unset.
func (v Value) IsNil() bool { return v.kind == KindNil }

// AsInt returns the integer payload; ok is false for other kinds.
func (v Value) AsInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return int64(v.word), true
}

// AsReal returns the float payload; ok is false for other kinds.
func (v Value) AsReal() (float64, bool) {
	if v.kind != KindReal {
		return 0, false
	}
	return math.Float64frombits(v.word), true
}

// AsString returns the string payload; ok is false for other kinds.
func (v Value) AsString() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.str(), true
}

// AsBool returns the boolean payload; ok is false for other kinds.
func (v Value) AsBool() (bool, bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.word != 0, true
}

// AsRef returns the referenced UID; ok is false for other kinds.
func (v Value) AsRef() (uid.UID, bool) {
	if v.kind != KindRef {
		return uid.Nil, false
	}
	return v.refUID(), true
}

// str is the string payload of a KindString value.
func (v Value) str() string { return unsafe.String((*byte)(v.ptr), int(v.word)) }

// refUID is the reference of a KindRef value.
func (v Value) refUID() uid.UID { return uid.UID{Class: v.ref, Serial: v.word} }

// elems is the element slice of a collection, nil when it is empty.
func (v Value) elems() []Value { return unsafe.Slice((*Value)(v.ptr), int(v.word)) }

// Elems returns the elements of a set or list; nil for other kinds and
// for empty collections. The caller must not mutate the returned slice;
// appending to it copies.
func (v Value) Elems() []Value {
	if v.IsCollection() {
		return v.elems()
	}
	return nil
}

// IsCollection reports whether v is a set or list.
func (v Value) IsCollection() bool { return v.kind == KindSet || v.kind == KindList }

// Len returns the number of elements of a collection, and 0 otherwise.
func (v Value) Len() int {
	if v.IsCollection() {
		return int(v.word)
	}
	return 0
}

// Equal reports deep structural equality. Sets compare order-insensitively;
// lists compare order-sensitively. NaN reals compare equal to themselves so
// Equal is an equivalence relation.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindNil:
		return true
	case KindInt, KindBool:
		return v.word == w.word
	case KindReal:
		f, g := math.Float64frombits(v.word), math.Float64frombits(w.word)
		if math.IsNaN(f) && math.IsNaN(g) {
			return true
		}
		return f == g
	case KindString:
		return v.str() == w.str()
	case KindRef:
		return v.ref == w.ref && v.word == w.word
	case KindList:
		ve, we := v.elems(), w.elems()
		if len(ve) != len(we) {
			return false
		}
		for i := range ve {
			if !ve[i].Equal(we[i]) {
				return false
			}
		}
		return true
	case KindSet:
		ve, we := v.elems(), w.elems()
		if len(ve) != len(we) {
			return false
		}
		used := make([]bool, len(we))
	outer:
		for _, e := range ve {
			for j, f := range we {
				if !used[j] && e.Equal(f) {
					used[j] = true
					continue outer
				}
			}
			return false
		}
		return true
	default:
		return false
	}
}

// Clone returns a deep copy of v. Values are immutable, so Clone is only
// needed when a caller wants element storage of its own.
func (v Value) Clone() Value {
	if !v.IsCollection() {
		return v
	}
	elems := v.elems()
	out := make([]Value, len(elems))
	for i, e := range elems {
		out[i] = e.Clone()
	}
	return collection(v.kind, out)
}

// Refs appends to dst every UID referenced by v, recursing through
// collections, and returns the extended slice. The order is deterministic
// (element order within the value).
func (v Value) Refs(dst []uid.UID) []uid.UID {
	switch v.kind {
	case KindRef:
		return append(dst, v.refUID())
	case KindSet, KindList:
		for _, e := range v.elems() {
			dst = e.Refs(dst)
		}
	}
	return dst
}

// ContainsRef reports whether v references u, directly or inside a
// collection.
func (v Value) ContainsRef(u uid.UID) bool {
	switch v.kind {
	case KindRef:
		return v.refUID() == u
	case KindSet, KindList:
		for _, e := range v.elems() {
			if e.ContainsRef(u) {
				return true
			}
		}
	}
	return false
}

// WithoutRef returns a copy of v with every reference to u removed. A
// direct reference becomes Nil; collection elements referencing u are
// dropped.
func (v Value) WithoutRef(u uid.UID) Value {
	switch v.kind {
	case KindRef:
		if v.refUID() == u {
			return Nil
		}
		return v
	case KindSet, KindList:
		elems := v.elems()
		out := make([]Value, 0, len(elems))
		for _, e := range elems {
			ne := e.WithoutRef(u)
			if ne.IsNil() && e.kind == KindRef {
				continue // drop removed refs from collections
			}
			out = append(out, ne)
		}
		return collection(v.kind, out)
	default:
		return v
	}
}

// ReplaceRef returns a copy of v with every reference to old rewritten to
// point at new. If new is Nil the behavior matches WithoutRef. This is
// used when version derivation rebinds an exclusive reference to a generic
// instance (paper Figure 1).
func (v Value) ReplaceRef(old, new uid.UID) Value {
	if new.IsNil() {
		return v.WithoutRef(old)
	}
	switch v.kind {
	case KindRef:
		if v.refUID() == old {
			return Ref(new)
		}
		return v
	case KindSet, KindList:
		elems := v.elems()
		out := make([]Value, len(elems))
		for i, e := range elems {
			out[i] = e.ReplaceRef(old, new)
		}
		return collection(v.kind, out)
	default:
		return v
	}
}

// WithRef returns a copy of the collection v with a reference to u added
// (sets ignore duplicates). If v is Nil a direct reference is returned; if
// v is a direct reference the result is a set of both, which the schema
// layer rejects for single-valued attributes.
func (v Value) WithRef(u uid.UID) Value {
	switch v.kind {
	case KindNil:
		return Ref(u)
	case KindRef:
		return SetOf(v, Ref(u))
	case KindSet, KindList:
		elems := v.elems()
		if v.kind == KindSet {
			for _, e := range elems {
				if e.ContainsRef(u) {
					return v
				}
			}
		}
		out := make([]Value, len(elems), len(elems)+1)
		copy(out, elems)
		return collection(v.kind, append(out, Ref(u)))
	default:
		return v
	}
}

// String renders the value in an s-expression-friendly form.
func (v Value) String() string { return string(v.AppendText(nil)) }

// AppendText appends the String form of v to dst and returns the
// extended slice: integers in decimal, reals as %g renders them (the
// shortest form; NaN, +Inf, -Inf), strings Go-quoted, references as
// #class:serial, sets as {a b} and lists as [a b].
func (v Value) AppendText(dst []byte) []byte {
	switch v.kind {
	case KindNil:
		return append(dst, "nil"...)
	case KindInt:
		return strconv.AppendInt(dst, int64(v.word), 10)
	case KindReal:
		return strconv.AppendFloat(dst, math.Float64frombits(v.word), 'g', -1, 64)
	case KindString:
		return strconv.AppendQuote(dst, v.str())
	case KindBool:
		if v.word != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case KindRef:
		return v.refUID().AppendText(append(dst, '#'))
	case KindSet, KindList:
		open, close := byte('{'), byte('}')
		if v.kind == KindList {
			open, close = '[', ']'
		}
		dst = append(dst, open)
		for i, e := range v.elems() {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = e.AppendText(dst)
		}
		return append(dst, close)
	default:
		return append(dst, '?')
	}
}

// SortedRefs returns the UIDs referenced by v in UID order, deduplicated.
func (v Value) SortedRefs() []uid.UID {
	refs := v.Refs(nil)
	sort.Slice(refs, func(i, j int) bool { return refs[i].Less(refs[j]) })
	out := refs[:0]
	var prev uid.UID
	for i, r := range refs {
		if i == 0 || r != prev {
			out = append(out, r)
		}
		prev = r
	}
	return out
}
