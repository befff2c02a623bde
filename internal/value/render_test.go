package value

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/uid"
)

// fmtString is Value.String as it was written with fmt before it was
// rebuilt on AppendText; the golden tests hold the new rendering to it
// byte for byte.
func fmtString(v Value) string {
	switch v.Kind() {
	case KindNil:
		return "nil"
	case KindInt:
		i, _ := v.AsInt()
		return fmt.Sprintf("%d", i)
	case KindReal:
		f, _ := v.AsReal()
		return fmt.Sprintf("%g", f)
	case KindString:
		s, _ := v.AsString()
		return fmt.Sprintf("%q", s)
	case KindBool:
		if b, _ := v.AsBool(); b {
			return "true"
		}
		return "false"
	case KindRef:
		r, _ := v.AsRef()
		return "#" + fmt.Sprintf("%d:%d", r.Class, r.Serial)
	case KindSet, KindList:
		parts := make([]string, v.Len())
		for i, e := range v.Elems() {
			parts[i] = fmtString(e)
		}
		open, close := "{", "}"
		if v.Kind() == KindList {
			open, close = "[", "]"
		}
		return open + strings.Join(parts, " ") + close
	default:
		return "?"
	}
}

func goldenValues() []Value {
	return []Value{
		Nil,
		Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Real(0), Real(math.Copysign(0, -1)), Real(1.5), Real(-2.25e-7),
		Real(1e20), Real(1e21), Real(123456789), Real(1e-5), Real(0.1),
		Real(math.NaN()), Real(math.Inf(1)), Real(math.Inf(-1)),
		Real(math.MaxFloat64), Real(math.SmallestNonzeroFloat64),
		Str(""), Str("plain"), Str(`say "hi"`), Str(`back\slash`),
		Str("tab\tnl\nnul\x00bel\x07del\x7f"), Str("héllo, 世界"),
		Str("bad \xff\xfe utf8"), Str("\u2028 \ufeff \U0001F600"),
		Bool(true), Bool(false),
		Ref(u(3, 7)), Ref(u(math.MaxUint32, math.MaxUint64)), Ref(uid.Nil),
		SetOf(), ListOf(),
		SetOf(Int(1), Str("a"), Ref(u(1, 2))),
		ListOf(ListOf(), SetOf(), ListOf(SetOf(Real(math.NaN()), Nil), Str("x\"y"))),
	}
}

func TestAppendTextMatchesFmtRendering(t *testing.T) {
	for _, v := range goldenValues() {
		want := fmtString(v)
		if got := v.String(); got != want {
			t.Errorf("String() = %q, fmt rendering %q", got, want)
		}
		prefix := []byte("pre:")
		if got := string(v.AppendText(prefix)); got != "pre:"+want {
			t.Errorf("AppendText(pre:) = %q, want %q", got, "pre:"+want)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 2000; i++ {
		v := randValue(rng, 3)
		if got, want := v.String(), fmtString(v); got != want {
			t.Fatalf("String() = %q, fmt rendering %q", got, want)
		}
	}
}

// TestStringGolden pins a few renderings as literals, so a change to the
// reference above cannot move them unnoticed.
func TestStringGolden(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want string
	}{
		{Int(math.MinInt64), "-9223372036854775808"},
		{Real(math.NaN()), "NaN"},
		{Real(math.Inf(1)), "+Inf"},
		{Real(math.Inf(-1)), "-Inf"},
		{Real(math.Copysign(0, -1)), "-0"},
		{Real(1e21), "1e+21"},
		{Real(2.5), "2.5"},
		{Str("a\"b\x01\xff"), `"a\"b\x01\xff"`},
		{Ref(uid.Nil), "nil"},
		{Ref(u(2, 9)), "#2:9"},
		{SetOf(), "{}"},
		{ListOf(), "[]"},
		{ListOf(SetOf(Int(1), Int(2)), ListOf(Bool(true))), "[{1 2} [true]]"},
	} {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// randValue draws a value of any kind, nesting collections up to depth.
func randValue(rng *rand.Rand, depth int) Value {
	k := rng.Intn(8)
	if depth == 0 && k >= 6 {
		k = rng.Intn(6)
	}
	switch k {
	case 0:
		return Nil
	case 1:
		return Int(int64(rng.Uint64()))
	case 2:
		return Real(math.Float64frombits(rng.Uint64()))
	case 3:
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return Str(string(b))
	case 4:
		return Bool(rng.Intn(2) == 0)
	case 5:
		return Ref(u(rng.Uint32(), rng.Uint64()))
	default:
		elems := make([]Value, rng.Intn(4))
		for i := range elems {
			elems[i] = randValue(rng, depth-1)
		}
		if k == 6 {
			return SetOf(elems...)
		}
		return ListOf(elems...)
	}
}
