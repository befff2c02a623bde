package value

import (
	"encoding/json"
	"fmt"

	"repro/internal/uid"
)

// jsonValue is the JSON wire form of a Value, used when persisting
// catalog metadata (e.g. :init defaults). Object data itself uses the
// binary encoding package, not JSON.
type jsonValue struct {
	Kind  string      `json:"k"`
	Int   *int64      `json:"i,omitempty"`
	Real  *float64    `json:"f,omitempty"`
	Str   *string     `json:"s,omitempty"`
	Bool  *bool       `json:"b,omitempty"`
	Ref   *uid.UID    `json:"r,omitempty"`
	Elems []jsonValue `json:"e,omitempty"`
}

func toJSON(v Value) jsonValue {
	out := jsonValue{Kind: v.Kind().String()}
	switch v.Kind() {
	case KindInt:
		i, _ := v.AsInt()
		out.Int = &i
	case KindReal:
		f, _ := v.AsReal()
		out.Real = &f
	case KindString:
		s, _ := v.AsString()
		out.Str = &s
	case KindBool:
		b, _ := v.AsBool()
		out.Bool = &b
	case KindRef:
		r, _ := v.AsRef()
		out.Ref = &r
	case KindSet, KindList:
		for _, e := range v.Elems() {
			out.Elems = append(out.Elems, toJSON(e))
		}
	}
	return out
}

func fromJSON(j jsonValue) (Value, error) {
	switch j.Kind {
	case "nil", "":
		return Nil, nil
	case "int":
		if j.Int == nil {
			return Nil, fmt.Errorf("value: int payload missing")
		}
		return Int(*j.Int), nil
	case "real":
		if j.Real == nil {
			return Nil, fmt.Errorf("value: real payload missing")
		}
		return Real(*j.Real), nil
	case "string":
		if j.Str == nil {
			return Nil, fmt.Errorf("value: string payload missing")
		}
		return Str(*j.Str), nil
	case "bool":
		if j.Bool == nil {
			return Nil, fmt.Errorf("value: bool payload missing")
		}
		return Bool(*j.Bool), nil
	case "ref":
		if j.Ref == nil {
			return Nil, fmt.Errorf("value: ref payload missing")
		}
		return Ref(*j.Ref), nil
	case "set", "list":
		elems := make([]Value, 0, len(j.Elems))
		for _, je := range j.Elems {
			e, err := fromJSON(je)
			if err != nil {
				return Nil, err
			}
			elems = append(elems, e)
		}
		if j.Kind == "set" {
			return SetOwned(elems), nil
		}
		return ListOwned(elems), nil
	default:
		return Nil, fmt.Errorf("value: unknown kind %q", j.Kind)
	}
}

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) {
	return json.Marshal(toJSON(v))
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(b []byte) error {
	var j jsonValue
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	nv, err := fromJSON(j)
	if err != nil {
		return err
	}
	*v = nv
	return nil
}
