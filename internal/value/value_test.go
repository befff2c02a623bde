package value

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/uid"
)

func u(c uint32, s uint64) uid.UID { return uid.UID{Class: uid.ClassID(c), Serial: s} }

func TestConstructorsAndAccessors(t *testing.T) {
	if v, ok := Int(42).AsInt(); !ok || v != 42 {
		t.Fatalf("Int accessor: %v %v", v, ok)
	}
	if v, ok := Real(2.5).AsReal(); !ok || v != 2.5 {
		t.Fatalf("Real accessor: %v %v", v, ok)
	}
	if v, ok := Str("hi").AsString(); !ok || v != "hi" {
		t.Fatalf("Str accessor: %v %v", v, ok)
	}
	if v, ok := Bool(true).AsBool(); !ok || !v {
		t.Fatalf("Bool accessor: %v %v", v, ok)
	}
	r := u(1, 2)
	if v, ok := Ref(r).AsRef(); !ok || v != r {
		t.Fatalf("Ref accessor: %v %v", v, ok)
	}
	// Wrong-kind accessors fail.
	if _, ok := Int(1).AsString(); ok {
		t.Fatal("AsString on int succeeded")
	}
	if _, ok := Str("x").AsRef(); ok {
		t.Fatal("AsRef on string succeeded")
	}
}

func TestRefNilCollapsesToNil(t *testing.T) {
	v := Ref(uid.Nil)
	if !v.IsNil() {
		t.Fatal("Ref(Nil) is not the nil value")
	}
	if v.Kind() != KindNil {
		t.Fatalf("Ref(Nil).Kind() = %v", v.Kind())
	}
}

func TestSetDeduplicates(t *testing.T) {
	s := SetOf(Int(1), Int(2), Int(1), Int(3), Int(2))
	if s.Len() != 3 {
		t.Fatalf("set Len = %d, want 3", s.Len())
	}
	want := []Value{Int(1), Int(2), Int(3)}
	got := s.Elems()
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("elem %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEqualSetOrderInsensitive(t *testing.T) {
	a := SetOf(Int(1), Int(2), Int(3))
	b := SetOf(Int(3), Int(1), Int(2))
	if !a.Equal(b) {
		t.Fatal("sets with same elements in different order not Equal")
	}
	c := ListOf(Int(1), Int(2))
	d := ListOf(Int(2), Int(1))
	if c.Equal(d) {
		t.Fatal("lists with different order compare Equal")
	}
	if a.Equal(c) {
		t.Fatal("set equals list")
	}
}

func TestEqualNaN(t *testing.T) {
	n := Real(math.NaN())
	if !n.Equal(n) {
		t.Fatal("NaN value not Equal to itself; Equal is not reflexive")
	}
}

func TestRefsRecursion(t *testing.T) {
	v := SetOf(
		Ref(u(1, 1)),
		ListOf(Ref(u(1, 2)), Int(9), SetOf(Ref(u(2, 1)))),
		Str("x"),
	)
	refs := v.Refs(nil)
	want := []uid.UID{u(1, 1), u(1, 2), u(2, 1)}
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("Refs = %v, want %v", refs, want)
	}
	for _, r := range want {
		if !v.ContainsRef(r) {
			t.Fatalf("ContainsRef(%v) = false", r)
		}
	}
	if v.ContainsRef(u(9, 9)) {
		t.Fatal("ContainsRef of absent ref = true")
	}
}

func TestWithoutRef(t *testing.T) {
	a, b, c := u(1, 1), u(1, 2), u(1, 3)
	direct := Ref(a)
	if !direct.WithoutRef(a).IsNil() {
		t.Fatal("WithoutRef on direct ref did not nil it")
	}
	set := RefSet(a, b, c)
	got := set.WithoutRef(b)
	if got.Len() != 2 || got.ContainsRef(b) {
		t.Fatalf("WithoutRef on set = %v", got)
	}
	if !got.ContainsRef(a) || !got.ContainsRef(c) {
		t.Fatal("WithoutRef removed the wrong elements")
	}
	// Original is untouched (immutability by convention).
	if set.Len() != 3 {
		t.Fatal("WithoutRef mutated its receiver")
	}
}

func TestReplaceRef(t *testing.T) {
	a, b, g := u(1, 1), u(1, 2), u(7, 1)
	v := SetOf(Ref(a), Ref(b))
	got := v.ReplaceRef(a, g)
	if !got.ContainsRef(g) || got.ContainsRef(a) || !got.ContainsRef(b) {
		t.Fatalf("ReplaceRef = %v", got)
	}
	// Replacing with Nil behaves like WithoutRef (paper Fig. 1: dependent
	// refs are set to Nil on derivation).
	got = v.ReplaceRef(a, uid.Nil)
	if got.ContainsRef(a) || got.Len() != 1 {
		t.Fatalf("ReplaceRef to Nil = %v", got)
	}
}

func TestWithRef(t *testing.T) {
	a, b := u(1, 1), u(1, 2)
	v := Nil.WithRef(a)
	if r, ok := v.AsRef(); !ok || r != a {
		t.Fatalf("Nil.WithRef = %v", v)
	}
	s := RefSet(a)
	s2 := s.WithRef(b)
	if s2.Len() != 2 || !s2.ContainsRef(b) {
		t.Fatalf("set WithRef = %v", s2)
	}
	// Duplicate add is a no-op for sets.
	s3 := s2.WithRef(b)
	if s3.Len() != 2 {
		t.Fatalf("duplicate WithRef grew the set: %v", s3)
	}
}

func TestCloneIsDeep(t *testing.T) {
	inner := ListOf(Int(1), Int(2))
	v := SetOf(inner, Str("x"))
	c := v.Clone()
	if !c.Equal(v) {
		t.Fatal("clone not equal to original")
	}
	// Mutate the clone's internals via the exposed slice; original must be
	// unaffected.
	c.Elems()[0].Elems()[0] = Int(99)
	if v.Elems()[0].Elems()[0].Equal(Int(99)) {
		t.Fatal("mutating clone affected original: clone is shallow")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Nil, "nil"},
		{Int(-3), "-3"},
		{Real(1.5), "1.5"},
		{Str("a b"), `"a b"`},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Ref(u(2, 9)), "#2:9"},
		{SetOf(Int(1), Int(2)), "{1 2}"},
		{ListOf(Str("x")), `["x"]`},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v-kind) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
}

func TestSortedRefsDedup(t *testing.T) {
	a, b := u(2, 1), u(1, 5)
	v := ListOf(Ref(a), Ref(b), Ref(a))
	got := v.SortedRefs()
	want := []uid.UID{b, a}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedRefs = %v, want %v", got, want)
	}
}

// genValue builds a random value of bounded depth for property tests.
func genValue(r *rand.Rand, depth int) Value {
	k := r.Intn(8)
	if depth <= 0 && k >= 6 {
		k = r.Intn(6)
	}
	switch k {
	case 0:
		return Nil
	case 1:
		return Int(r.Int63n(100))
	case 2:
		return Real(float64(r.Intn(100)) / 4)
	case 3:
		return Str(string(rune('a' + r.Intn(26))))
	case 4:
		return Bool(r.Intn(2) == 0)
	case 5:
		return Ref(u(uint32(r.Intn(4)+1), uint64(r.Intn(10)+1)))
	default:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = genValue(r, depth-1)
		}
		if k == 6 {
			return SetOf(elems...)
		}
		return ListOf(elems...)
	}
}

func TestPropertyEqualReflexiveAndCloneEqual(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		v := genValue(r, 3)
		if !v.Equal(v) {
			t.Fatalf("Equal not reflexive for %v", v)
		}
		if !v.Clone().Equal(v) {
			t.Fatalf("Clone not Equal for %v", v)
		}
	}
}

func TestPropertyWithoutRefRemovesAll(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		v := genValue(r, 3)
		refs := v.Refs(nil)
		if len(refs) == 0 {
			continue
		}
		target := refs[r.Intn(len(refs))]
		got := v.WithoutRef(target)
		if got.ContainsRef(target) {
			t.Fatalf("WithoutRef(%v) left a reference in %v -> %v", target, v, got)
		}
	}
}

func TestPropertySetDedupIdempotent(t *testing.T) {
	f := func(xs []int64) bool {
		vals := make([]Value, len(xs))
		for i, x := range xs {
			vals[i] = Int(x)
		}
		once := SetOf(vals...)
		twice := SetOf(once.Elems()...)
		return once.Equal(twice) && once.Len() == twice.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindNil: "nil", KindInt: "int", KindReal: "real", KindString: "string",
		KindBool: "bool", KindRef: "ref", KindSet: "set", KindList: "list",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind = %q", Kind(99).String())
	}
}

func TestWithRefOnListAndScalar(t *testing.T) {
	a, b := u(1, 1), u(1, 2)
	l := ListOf(Ref(a))
	l2 := l.WithRef(b)
	if l2.Len() != 2 || !l2.ContainsRef(b) {
		t.Fatalf("list WithRef = %v", l2)
	}
	// Direct ref becomes a two-element set.
	v := Ref(a).WithRef(b)
	if v.Kind() != KindSet || v.Len() != 2 {
		t.Fatalf("ref WithRef = %v", v)
	}
	// Non-collection scalars are returned unchanged.
	s := Int(5).WithRef(a)
	if !s.Equal(Int(5)) {
		t.Fatalf("scalar WithRef = %v", s)
	}
}

func TestElemsAndLenOnScalars(t *testing.T) {
	for _, v := range []Value{Nil, Int(1), Real(0.5), Str("abc"), Bool(true), Ref(u(1, 2))} {
		if v.Elems() != nil || v.Len() != 0 || v.IsCollection() {
			t.Errorf("%v: Elems %v, Len %d, IsCollection %v", v, v.Elems(), v.Len(), v.IsCollection())
		}
	}
}

// TestValueIsCompact: a Value is at most 32 bytes (24 on 64-bit targets),
// so collections and attribute slices stay small.
func TestValueIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size > 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 32", size)
	}
}

func TestEmptyPayloads(t *testing.T) {
	e := Str("")
	if s, ok := e.AsString(); !ok || s != "" || e.IsNil() {
		t.Fatalf("Str(\"\") = %q, %v (nil %v)", s, ok, e.IsNil())
	}
	if !e.Equal(Str("")) || e.Equal(Nil) || e.Equal(Str("x")) || Str("x").Equal(e) {
		t.Fatal("empty string Equal wrong")
	}
	if got := e.String(); got != `""` {
		t.Fatalf("Str(\"\").String() = %s", got)
	}
	for _, c := range []struct {
		v    Value
		kind Kind
		str  string
	}{{SetOf(), KindSet, "{}"}, {ListOf(), KindList, "[]"}, {RefSet(uid.Nil), KindSet, "{}"}} {
		if c.v.Kind() != c.kind || c.v.IsNil() || !c.v.IsCollection() || c.v.Len() != 0 || len(c.v.Elems()) != 0 {
			t.Fatalf("empty %v: kind %v, nil %v, len %d", c.kind, c.v.Kind(), c.v.IsNil(), c.v.Len())
		}
		if got := c.v.String(); got != c.str {
			t.Fatalf("empty %v renders %s, want %s", c.kind, got, c.str)
		}
		if !c.v.Equal(c.v.Clone()) || c.v.Equal(Nil) || c.v.Equal(ListOf(Int(1))) || c.v.Equal(SetOf(Int(1))) {
			t.Fatalf("empty %v Equal wrong", c.kind)
		}
		if refs := c.v.Refs(nil); len(refs) != 0 {
			t.Fatalf("empty %v Refs = %v", c.kind, refs)
		}
		if got := c.v.WithRef(u(1, 1)); got.Kind() != c.kind || got.Len() != 1 || !got.ContainsRef(u(1, 1)) {
			t.Fatalf("empty %v WithRef = %v", c.kind, got)
		}
	}
	if SetOf().Equal(ListOf()) {
		t.Fatal("empty set equals empty list")
	}
	// Removing the last element leaves an empty collection of the same kind.
	if got := RefSet(u(1, 1)).WithoutRef(u(1, 1)); got.Kind() != KindSet || got.Len() != 0 {
		t.Fatalf("WithoutRef of the only element = %v", got)
	}
}

// TestScalarsRoundTripExtremes: the shared payload word carries every
// bit of each scalar kind.
func TestScalarsRoundTripExtremes(t *testing.T) {
	for _, i := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
		if got, ok := Int(i).AsInt(); !ok || got != i {
			t.Errorf("Int(%d) = %d, %v", i, got, ok)
		}
	}
	for _, f := range []float64{math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64} {
		if got, ok := Real(f).AsReal(); !ok || math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Real(%g) = %g, %v", f, got, ok)
		}
	}
	big := u(math.MaxUint32, math.MaxUint64)
	if got, ok := Ref(big).AsRef(); !ok || got != big {
		t.Errorf("Ref(%v) = %v, %v", big, got, ok)
	}
	if Int(1).Equal(Bool(true)) || Int(0).Equal(Real(0)) || Ref(u(1, 2)).Equal(Ref(u(2, 2))) {
		t.Error("values of different kind or class compare Equal")
	}
	if b, ok := Int(1).AsBool(); ok || b {
		t.Error("AsBool on int succeeded")
	}
}
