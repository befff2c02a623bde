// Package encoding serializes objects and values to the tagged binary
// format stored in the WAL and its snapshots. The format is
// self-describing (every value carries a kind tag) so that objects can be
// decoded without consulting the schema catalog — necessary because
// deferred schema evolution (§4.3) means an object's stored shape may lag
// behind its class definition.
//
// Layout (all integers are varint/uvarint, floats are fixed 8 bytes LE):
//
//	object  := magic(1) uid cc(uvarint) nattrs(uvarint) attr* nrev(uvarint) rev*
//	attr    := name(str) value
//	rev     := uid flags(1) count(uvarint)
//	value   := kind(1) payload
//	uid     := class(uvarint) serial(uvarint)
//	str     := len(uvarint) bytes
package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/object"
	"repro/internal/uid"
	"repro/internal/value"
)

// magic identifies (and versions) the object record format.
const magic = 0xC0

// Sentinel decode errors.
var (
	ErrTruncated = errors.New("encoding: truncated record")
	ErrBadMagic  = errors.New("encoding: bad magic byte")
	ErrBadKind   = errors.New("encoding: unknown value kind")
)

// AppendUID appends the encoding of u to dst.
func AppendUID(dst []byte, u uid.UID) []byte {
	dst = binary.AppendUvarint(dst, uint64(u.Class))
	return binary.AppendUvarint(dst, u.Serial)
}

// DecodeUID decodes a UID from b, returning the remainder.
func DecodeUID(b []byte) (uid.UID, []byte, error) {
	c, n := binary.Uvarint(b)
	if n <= 0 {
		return uid.Nil, nil, fmt.Errorf("uid class: %w", ErrTruncated)
	}
	b = b[n:]
	s, n := binary.Uvarint(b)
	if n <= 0 {
		return uid.Nil, nil, fmt.Errorf("uid serial: %w", ErrTruncated)
	}
	return uid.UID{Class: uid.ClassID(c), Serial: s}, b[n:], nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(b []byte) (string, []byte, error) {
	s, rest, err := decodeBytes(b)
	return string(s), rest, err
}

// decodeBytes is decodeString without the copy: the string's bytes, in b.
func decodeBytes(b []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("string length: %w", ErrTruncated)
	}
	b = b[n:]
	if uint64(len(b)) < l {
		return nil, nil, fmt.Errorf("string body: %w", ErrTruncated)
	}
	return b[:l], b[l:], nil
}

// AppendValue appends the encoding of v to dst.
func AppendValue(dst []byte, v value.Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case value.KindNil:
	case value.KindInt:
		i, _ := v.AsInt()
		dst = binary.AppendVarint(dst, i)
	case value.KindReal:
		f, _ := v.AsReal()
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	case value.KindString:
		s, _ := v.AsString()
		dst = appendString(dst, s)
	case value.KindBool:
		b, _ := v.AsBool()
		if b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case value.KindRef:
		r, _ := v.AsRef()
		dst = AppendUID(dst, r)
	case value.KindSet, value.KindList:
		elems := v.Elems()
		dst = binary.AppendUvarint(dst, uint64(len(elems)))
		for _, e := range elems {
			dst = AppendValue(dst, e)
		}
	}
	return dst
}

// DecodeValue decodes a value from b, returning the remainder.
func DecodeValue(b []byte) (value.Value, []byte, error) {
	if len(b) == 0 {
		return value.Nil, nil, fmt.Errorf("value kind: %w", ErrTruncated)
	}
	k := value.Kind(b[0])
	b = b[1:]
	switch k {
	case value.KindNil:
		return value.Nil, b, nil
	case value.KindInt:
		i, n := binary.Varint(b)
		if n <= 0 {
			return value.Nil, nil, fmt.Errorf("int payload: %w", ErrTruncated)
		}
		return value.Int(i), b[n:], nil
	case value.KindReal:
		if len(b) < 8 {
			return value.Nil, nil, fmt.Errorf("real payload: %w", ErrTruncated)
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(b))
		return value.Real(f), b[8:], nil
	case value.KindString:
		s, rest, err := decodeString(b)
		if err != nil {
			return value.Nil, nil, err
		}
		return value.Str(s), rest, nil
	case value.KindBool:
		if len(b) < 1 {
			return value.Nil, nil, fmt.Errorf("bool payload: %w", ErrTruncated)
		}
		return value.Bool(b[0] != 0), b[1:], nil
	case value.KindRef:
		u, rest, err := DecodeUID(b)
		if err != nil {
			return value.Nil, nil, err
		}
		return value.Ref(u), rest, nil
	case value.KindSet, value.KindList:
		cnt, n := binary.Uvarint(b)
		if n <= 0 {
			return value.Nil, nil, fmt.Errorf("collection count: %w", ErrTruncated)
		}
		b = b[n:]
		// Every element takes at least one byte, so a count exceeding the
		// remaining input is corrupt; rejecting it here also keeps a hostile
		// count from driving a huge preallocation.
		if cnt > uint64(len(b)) {
			return value.Nil, nil, fmt.Errorf("collection count %d exceeds %d remaining bytes: %w",
				cnt, len(b), ErrTruncated)
		}
		elems := make([]value.Value, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			var e value.Value
			var err error
			e, b, err = DecodeValue(b)
			if err != nil {
				return value.Nil, nil, err
			}
			elems = append(elems, e)
		}
		if k == value.KindSet {
			return value.SetOwned(elems), b, nil
		}
		return value.ListOwned(elems), b, nil
	default:
		return value.Nil, nil, fmt.Errorf("kind %d: %w", k, ErrBadKind)
	}
}

// EncodeObject serializes o to a fresh byte slice. Attributes are written
// in sorted-name order so encodings are deterministic.
func EncodeObject(o *object.Object) []byte {
	dst := make([]byte, 0, 64)
	dst = append(dst, magic)
	dst = AppendUID(dst, o.UID())
	dst = binary.AppendUvarint(dst, o.CC())
	dst = binary.AppendUvarint(dst, uint64(o.NumAttrs()))
	o.Each(func(name string, v value.Value) {
		dst = appendString(dst, name)
		dst = AppendValue(dst, v)
	})
	revs := o.Reverse()
	dst = binary.AppendUvarint(dst, uint64(len(revs)))
	for _, r := range revs {
		dst = AppendUID(dst, r.Parent)
		var flags byte
		if r.Dependent {
			flags |= 1
		}
		if r.Exclusive {
			flags |= 2
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, uint64(r.Count))
	}
	return dst
}

// DecodeObject deserializes an object record.
func DecodeObject(b []byte) (*object.Object, error) {
	return Names(nil).DecodeObject(b)
}

// Names interns the attribute names of decoded objects: each distinct
// name is allocated once and shared by every object decoded through the
// table, as recovery decodes thousands of objects of a few classes.
type Names map[string]string

// intern returns the table's copy of name, adding one first if absent.
// A nil table copies name afresh.
func (n Names) intern(name []byte) string {
	if s, ok := n[string(name)]; ok {
		return s
	}
	s := string(name)
	if n != nil {
		n[s] = s
	}
	return s
}

// DecodeObject is the package's DecodeObject, taking each attribute
// name from names.
func (names Names) DecodeObject(b []byte) (*object.Object, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("object header: %w", ErrTruncated)
	}
	if b[0] != magic {
		return nil, fmt.Errorf("got 0x%02x: %w", b[0], ErrBadMagic)
	}
	b = b[1:]
	u, b, err := DecodeUID(b)
	if err != nil {
		return nil, err
	}
	o := object.New(u)
	cc, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("object cc: %w", ErrTruncated)
	}
	o.SetCC(cc)
	b = b[n:]
	nattrs, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("attr count: %w", ErrTruncated)
	}
	b = b[n:]
	for i := uint64(0); i < nattrs; i++ {
		var name []byte
		name, b, err = decodeBytes(b)
		if err != nil {
			return nil, err
		}
		var v value.Value
		v, b, err = DecodeValue(b)
		if err != nil {
			return nil, err
		}
		o.Set(names.intern(name), v)
	}
	nrev, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("reverse count: %w", ErrTruncated)
	}
	b = b[n:]
	for i := uint64(0); i < nrev; i++ {
		var p uid.UID
		p, b, err = DecodeUID(b)
		if err != nil {
			return nil, err
		}
		if len(b) < 1 {
			return nil, fmt.Errorf("reverse flags: %w", ErrTruncated)
		}
		flags := b[0]
		b = b[1:]
		cnt, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("reverse count field: %w", ErrTruncated)
		}
		b = b[n:]
		o.AddReverse(object.ReverseRef{
			Parent:    p,
			Dependent: flags&1 != 0,
			Exclusive: flags&2 != 0,
			Count:     uint32(cnt),
		})
	}
	return o, nil
}
