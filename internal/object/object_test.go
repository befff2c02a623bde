package object

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/uid"
	"repro/internal/value"
)

func u(c uint32, s uint64) uid.UID { return uid.UID{Class: uid.ClassID(c), Serial: s} }

func TestAttrsGetSetUnset(t *testing.T) {
	o := New(u(1, 1))
	if !o.Get("x").IsNil() {
		t.Fatal("unset attribute not Nil")
	}
	o.Set("x", value.Int(7))
	if v, _ := o.Get("x").AsInt(); v != 7 {
		t.Fatalf("Get(x) = %v", o.Get("x"))
	}
	if !o.Has("x") || o.Has("y") {
		t.Fatal("Has wrong")
	}
	o.Unset("x")
	if o.Has("x") {
		t.Fatal("Unset did not remove attribute")
	}
	// Setting Nil clears.
	o.Set("y", value.Str("s"))
	o.Set("y", value.Nil)
	if o.Has("y") {
		t.Fatal("Set(Nil) did not clear attribute")
	}
}

func TestAttrNamesSorted(t *testing.T) {
	o := New(u(1, 1))
	o.Set("zeta", value.Int(1))
	o.Set("alpha", value.Int(2))
	o.Set("mid", value.Int(3))
	want := []string{"alpha", "mid", "zeta"}
	if got := o.AttrNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AttrNames = %v, want %v", got, want)
	}
}

func TestRenameAttr(t *testing.T) {
	o := New(u(1, 1))
	o.Set("old", value.Int(5))
	o.RenameAttr("old", "new")
	if o.Has("old") || !o.Has("new") {
		t.Fatal("rename failed")
	}
	if v, _ := o.Get("new").AsInt(); v != 5 {
		t.Fatal("rename lost value")
	}
	// Renaming a missing attribute is a no-op.
	o.RenameAttr("ghost", "elsewhere")
	if o.Has("elsewhere") {
		t.Fatal("rename of missing attribute created one")
	}
}

func TestReverseRefLifecycle(t *testing.T) {
	o := New(u(2, 1))
	p1, p2 := u(1, 1), u(1, 2)
	o.AddReverse(ReverseRef{Parent: p1, Dependent: true, Exclusive: true})
	o.AddReverse(ReverseRef{Parent: p2, Dependent: false, Exclusive: false})
	if len(o.Reverse()) != 2 {
		t.Fatalf("reverse count = %d", len(o.Reverse()))
	}
	if !o.HasReverse(p1) || !o.HasReverse(p2) || o.HasReverse(u(9, 9)) {
		t.Fatal("HasReverse wrong")
	}
	if !o.HasExclusiveReverse() {
		t.Fatal("HasExclusiveReverse = false with a DX parent")
	}
	if !o.RemoveReverse(p1) {
		t.Fatal("RemoveReverse(p1) = false")
	}
	if o.HasExclusiveReverse() {
		t.Fatal("HasExclusiveReverse = true after removing the exclusive parent")
	}
	if o.RemoveReverse(p1) {
		t.Fatal("double RemoveReverse = true")
	}
}

func TestAddReverseOverwritesFlagsKeepsCount(t *testing.T) {
	o := New(u(2, 1))
	p := u(1, 1)
	o.AddReverse(ReverseRef{Parent: p, Dependent: true, Exclusive: true, Count: 3})
	// Re-adding with different flags and no count keeps the count.
	o.AddReverse(ReverseRef{Parent: p, Dependent: false, Exclusive: false})
	rs := o.Reverse()
	if len(rs) != 1 {
		t.Fatalf("reverse count = %d after overwrite", len(rs))
	}
	if rs[0].Dependent || rs[0].Exclusive {
		t.Fatal("flags not overwritten")
	}
	if rs[0].Count != 3 {
		t.Fatalf("count = %d, want preserved 3", rs[0].Count)
	}
}

func TestPartitionSetsDefinition1(t *testing.T) {
	// Definition 1: IX, DX, IS, DS partition the composite parents.
	o := New(u(3, 1))
	ix, dx, is, ds := u(1, 1), u(1, 2), u(1, 3), u(1, 4)
	o.AddReverse(ReverseRef{Parent: ix, Dependent: false, Exclusive: true})
	o.AddReverse(ReverseRef{Parent: dx, Dependent: true, Exclusive: true})
	o.AddReverse(ReverseRef{Parent: is, Dependent: false, Exclusive: false})
	o.AddReverse(ReverseRef{Parent: ds, Dependent: true, Exclusive: false})
	if got := o.IX(); !reflect.DeepEqual(got, []uid.UID{ix}) {
		t.Fatalf("IX = %v", got)
	}
	if got := o.DX(); !reflect.DeepEqual(got, []uid.UID{dx}) {
		t.Fatalf("DX = %v", got)
	}
	if got := o.IS(); !reflect.DeepEqual(got, []uid.UID{is}) {
		t.Fatalf("IS = %v", got)
	}
	if got := o.DS(); !reflect.DeepEqual(got, []uid.UID{ds}) {
		t.Fatalf("DS = %v", got)
	}
	if got := o.Parents(); len(got) != 4 {
		t.Fatalf("Parents = %v", got)
	}
}

func TestSetReverseFlags(t *testing.T) {
	o := New(u(2, 1))
	p := u(1, 1)
	o.AddReverse(ReverseRef{Parent: p, Dependent: true, Exclusive: true})
	if !o.SetReverseFlags(p, false, true) {
		t.Fatal("SetReverseFlags on existing ref = false")
	}
	if len(o.DX()) != 0 || len(o.IX()) != 1 {
		t.Fatal("flag change I4->I3 not applied")
	}
	if o.SetReverseFlags(u(9, 9), true, true) {
		t.Fatal("SetReverseFlags on missing ref = true")
	}
}

func TestRefsDedupSorted(t *testing.T) {
	o := New(u(1, 1))
	a, b := u(2, 5), u(2, 1)
	o.Set("p", value.Ref(a))
	o.Set("q", value.RefSet(b, a))
	got := o.Refs()
	want := []uid.UID{b, a}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Refs = %v, want %v", got, want)
	}
}

func TestCloneDeep(t *testing.T) {
	o := New(u(1, 1))
	o.Set("s", value.SetOf(value.Int(1)))
	o.AddReverse(ReverseRef{Parent: u(9, 1), Dependent: true, Exclusive: false})
	o.SetCC(42)
	c := o.Clone()
	if c.UID() != o.UID() || c.CC() != 42 {
		t.Fatal("clone identity/cc wrong")
	}
	c.AddReverse(ReverseRef{Parent: u(9, 2)})
	if len(o.Reverse()) != 1 {
		t.Fatal("clone shares reverse slice")
	}
	c.Set("s", value.Int(3))
	if !o.Get("s").Equal(value.SetOf(value.Int(1))) {
		t.Fatal("clone shares attrs")
	}
}

func TestCloneAs(t *testing.T) {
	o := New(u(1, 1))
	o.Set("x", value.Int(1))
	o.AddReverse(ReverseRef{Parent: u(9, 1)})
	n := o.CloneAs(u(1, 2))
	if n.UID() != u(1, 2) {
		t.Fatal("CloneAs UID wrong")
	}
	if n.HasAnyReverse() {
		t.Fatal("CloneAs copied reverse references; a fresh version has no parents")
	}
	if v, _ := n.Get("x").AsInt(); v != 1 {
		t.Fatal("CloneAs lost attributes")
	}
}

func TestReverseRefString(t *testing.T) {
	r := ReverseRef{Parent: u(3, 7), Dependent: true, Exclusive: false}
	if got := r.String(); got != "3:7[DS]" {
		t.Fatalf("String = %q", got)
	}
	r = ReverseRef{Parent: u(3, 7), Dependent: false, Exclusive: true, Count: 2}
	if got := r.String(); got != "3:7[IX](rc=2)" {
		t.Fatalf("String = %q", got)
	}
}

func TestObjectString(t *testing.T) {
	o := New(u(1, 2))
	o.Set("name", value.Str("v"))
	o.AddReverse(ReverseRef{Parent: u(2, 1), Dependent: true, Exclusive: true})
	s := o.String()
	for _, want := range []string{"#1:2", `name="v"`, "2:1[DX]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// TestPropertyAttrsMatchMapModel runs seeded random Set/Unset/RenameAttr/
// Clone sequences against a map model: the names stay sorted and equal to
// the model's keys, every Get agrees with it, and a clone is independent
// of the object it was taken from.
func TestPropertyAttrsMatchMapModel(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	check := func(o *Object, model map[string]value.Value) {
		t.Helper()
		want := make([]string, 0, len(model))
		for n := range model {
			want = append(want, n)
		}
		sort.Strings(want)
		if got := o.AttrNames(); !slices.Equal(got, want) {
			t.Fatalf("AttrNames = %v, want %v", got, want)
		}
		if o.NumAttrs() != len(want) {
			t.Fatalf("NumAttrs = %d, want %d", o.NumAttrs(), len(want))
		}
		for _, n := range names {
			if got := o.Get(n); !got.Equal(model[n]) || o.Has(n) != !got.IsNil() {
				t.Fatalf("Get(%q) = %v, want %v", n, got, model[n])
			}
		}
	}
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		o, model := New(u(1, 1)), map[string]value.Value{}
		for step := 0; step < 200; step++ {
			n := names[r.Intn(len(names))]
			switch r.Intn(5) {
			case 0, 1:
				v := value.Int(r.Int63n(4))
				if r.Intn(8) == 0 {
					v = value.Nil
				}
				o.Set(n, v)
				if v.IsNil() {
					delete(model, n)
				} else {
					model[n] = v
				}
			case 2:
				o.Unset(n)
				delete(model, n)
			case 3:
				to := names[r.Intn(len(names))]
				o.RenameAttr(n, to)
				if v, ok := model[n]; ok {
					delete(model, n)
					model[to] = v
				}
			case 4:
				c, cmodel := o.Clone(), maps.Clone(model)
				m := names[r.Intn(len(names))]
				c.Set(n, value.Str("clone"))
				c.Unset(m)
				cmodel[n] = value.Str("clone")
				delete(cmodel, m)
				o.Set(m, value.Str("original"))
				model[m] = value.Str("original")
				check(c, cmodel)
			}
			check(o, model)
		}
	}
}
