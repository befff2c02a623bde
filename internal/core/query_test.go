package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

// docFixture builds a two-document graph shaped like the paper's Figure 5:
//
//	doc1 -DS-> s1 -DS-> pShared      doc2 -DS-> s2 -DS-> pShared
//	doc1 -DX-> note (annotation)     s1  -DS-> p1
//	doc1 -IS-> img (figure)
type docFixture struct {
	e                      *Engine
	doc1, doc2, s1, s2     uid.UID
	p1, pShared, note, img uid.UID
}

func newDocFixture(t *testing.T) *docFixture {
	t.Helper()
	e := documentEngine(t)
	f := &docFixture{e: e}
	f.p1 = mustNew(t, e, "Paragraph", nil).UID()
	f.pShared = mustNew(t, e, "Paragraph", nil).UID()
	f.note = mustNew(t, e, "Paragraph", nil).UID()
	f.img = mustNew(t, e, "Image", nil).UID()
	f.s1 = mustNew(t, e, "Section", map[string]value.Value{
		"Content": value.RefSet(f.p1, f.pShared),
	}).UID()
	f.s2 = mustNew(t, e, "Section", map[string]value.Value{
		"Content": value.RefSet(f.pShared),
	}).UID()
	f.doc1 = mustNew(t, e, "Document", map[string]value.Value{
		"Sections":    value.RefSet(f.s1),
		"Annotations": value.RefSet(f.note),
		"Figures":     value.RefSet(f.img),
	}).UID()
	f.doc2 = mustNew(t, e, "Document", map[string]value.Value{
		"Sections": value.RefSet(f.s2),
	}).UID()
	checkClean(t, e)
	return f
}

// querySource is the §3 query surface the engine and a Snapshot share.
type querySource interface {
	ComponentsOf(id uid.UID, q QueryOpts) ([]uid.UID, error)
	ParentsOf(id uid.UID, q QueryOpts) ([]uid.UID, error)
	AncestorsOf(id uid.UID, q QueryOpts) ([]uid.UID, error)
	RootsOf(id uid.UID) ([]uid.UID, error)
	ComponentOf(a, b uid.UID) (bool, error)
	ChildOf(a, b uid.UID) (bool, error)
	ExclusiveComponentOf(a, b uid.UID) (bool, error)
	SharedComponentOf(a, b uid.UID) (bool, error)
	LevelOf(a, b uid.UID) (int, error)
	Partitions(id uid.UID) (PartitionSets, error)
}

// eachSource runs fn once per query source. open returns the source over
// e's state at the call: the engine itself, or a snapshot begun then and
// released when the test ends.
func eachSource(t *testing.T, fn func(t *testing.T, open func(*Engine) querySource)) {
	t.Run("engine", func(t *testing.T) {
		fn(t, func(e *Engine) querySource { return e })
	})
	t.Run("snapshot", func(t *testing.T) {
		fn(t, func(e *Engine) querySource {
			s := e.BeginSnapshot()
			t.Cleanup(s.Release)
			return s
		})
	})
}

func asSet(ids []uid.UID) map[uid.UID]bool {
	m := make(map[uid.UID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func TestComponentsOfAll(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		f := newDocFixture(t)
		r := open(f.e)
		got, err := r.ComponentsOf(f.doc1, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want := asSet([]uid.UID{f.s1, f.note, f.img, f.p1, f.pShared})
		if len(got) != len(want) {
			t.Fatalf("components = %v", got)
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("unexpected component %v", id)
			}
		}
		// BFS order: level-1 components (s1, note, img) precede level-2
		// paragraphs.
		pos := map[uid.UID]int{}
		for i, id := range got {
			pos[id] = i
		}
		if pos[f.p1] < pos[f.s1] || pos[f.pShared] < pos[f.s1] {
			t.Fatalf("BFS order broken: %v", got)
		}
	})
}

func TestComponentsOfLevel(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		f := newDocFixture(t)
		r := open(f.e)
		got, err := r.ComponentsOf(f.doc1, QueryOpts{Level: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := asSet([]uid.UID{f.s1, f.note, f.img})
		if len(got) != len(want) {
			t.Fatalf("level-1 components = %v", got)
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("unexpected level-1 component %v", id)
			}
		}
	})
}

func TestComponentsOfClassFilter(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		f := newDocFixture(t)
		r := open(f.e)
		got, err := r.ComponentsOf(f.doc1, QueryOpts{Classes: []string{"Paragraph"}})
		if err != nil {
			t.Fatal(err)
		}
		want := asSet([]uid.UID{f.p1, f.pShared, f.note})
		if len(got) != len(want) {
			t.Fatalf("paragraph components = %v", got)
		}
	})
}

func TestComponentsOfExclusiveSharedFilter(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		f := newDocFixture(t)
		r := open(f.e)
		// Exclusive only: just the annotation (the only exclusive edge).
		got, _ := r.ComponentsOf(f.doc1, QueryOpts{Exclusive: true})
		if !reflect.DeepEqual(got, []uid.UID{f.note}) {
			t.Fatalf("exclusive components = %v", got)
		}
		// Shared only: sections, figures, paragraphs — not the annotation.
		got, _ = r.ComponentsOf(f.doc1, QueryOpts{Shared: true})
		want := asSet([]uid.UID{f.s1, f.img, f.p1, f.pShared})
		if len(got) != len(want) {
			t.Fatalf("shared components = %v", got)
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("unexpected shared component %v", id)
			}
		}
		// Both flags set behaves like no filter.
		both, _ := r.ComponentsOf(f.doc1, QueryOpts{Exclusive: true, Shared: true})
		all, _ := r.ComponentsOf(f.doc1, QueryOpts{})
		if len(both) != len(all) {
			t.Fatalf("both-flags = %v", both)
		}
	})
}

func TestParentsOf(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		f := newDocFixture(t)
		r := open(f.e)
		got, err := r.ParentsOf(f.pShared, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want := asSet([]uid.UID{f.s1, f.s2})
		if len(got) != len(want) {
			t.Fatalf("parents = %v", got)
		}
		// Class filter.
		got, _ = r.ParentsOf(f.pShared, QueryOpts{Classes: []string{"Document"}})
		if len(got) != 0 {
			t.Fatalf("document parents of a paragraph = %v", got)
		}
		// Exclusive filter: the note's only parent is exclusive.
		got, _ = r.ParentsOf(f.note, QueryOpts{Exclusive: true})
		if !reflect.DeepEqual(got, []uid.UID{f.doc1}) {
			t.Fatalf("exclusive parents = %v", got)
		}
		got, _ = r.ParentsOf(f.note, QueryOpts{Shared: true})
		if len(got) != 0 {
			t.Fatalf("shared parents of note = %v", got)
		}
		// Partition sets split the same parents by their D and X flags.
		p, err := r.Partitions(f.note)
		if err != nil || !reflect.DeepEqual(p.DX, []uid.UID{f.doc1}) || len(p.IX)+len(p.IS)+len(p.DS) != 0 {
			t.Fatalf("note partitions = %+v, %v", p, err)
		}
	})
}

func TestAncestorsOf(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		f := newDocFixture(t)
		r := open(f.e)
		got, err := r.AncestorsOf(f.pShared, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want := asSet([]uid.UID{f.s1, f.s2, f.doc1, f.doc2})
		if len(got) != len(want) {
			t.Fatalf("ancestors = %v", got)
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("unexpected ancestor %v", id)
			}
		}
		// Class filter.
		got, _ = r.AncestorsOf(f.pShared, QueryOpts{Classes: []string{"Document"}})
		if len(got) != 2 {
			t.Fatalf("document ancestors = %v", got)
		}
	})
}

func TestComponentOfChildOf(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		f := newDocFixture(t)
		r := open(f.e)
		cases := []struct {
			a, b        uid.UID
			comp, child bool
		}{
			{f.s1, f.doc1, true, true},
			{f.p1, f.doc1, true, false},
			{f.pShared, f.doc2, true, false},
			{f.p1, f.doc2, false, false},
			{f.doc1, f.s1, false, false}, // direction matters
			{f.doc1, f.doc1, false, false},
			{f.img, f.doc1, true, true},
		}
		for _, c := range cases {
			comp, err := r.ComponentOf(c.a, c.b)
			if err != nil {
				t.Fatal(err)
			}
			if comp != c.comp {
				t.Errorf("ComponentOf(%v, %v) = %v, want %v", c.a, c.b, comp, c.comp)
			}
			child, err := r.ChildOf(c.a, c.b)
			if err != nil {
				t.Fatal(err)
			}
			if child != c.child {
				t.Errorf("ChildOf(%v, %v) = %v, want %v", c.a, c.b, child, c.child)
			}
		}
	})
}

func TestExclusiveSharedComponentOf(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		f := newDocFixture(t)
		r := open(f.e)
		// The note is an exclusive component of doc1.
		if got, _ := r.ExclusiveComponentOf(f.note, f.doc1); !got {
			t.Fatal("ExclusiveComponentOf(note, doc1) = false")
		}
		if got, _ := r.SharedComponentOf(f.note, f.doc1); got {
			t.Fatal("SharedComponentOf(note, doc1) = true")
		}
		// pShared is a shared component of both documents.
		if got, _ := r.SharedComponentOf(f.pShared, f.doc1); !got {
			t.Fatal("SharedComponentOf(pShared, doc1) = false")
		}
		if got, _ := r.ExclusiveComponentOf(f.pShared, f.doc1); got {
			t.Fatal("ExclusiveComponentOf(pShared, doc1) = true")
		}
		// Non-components return false for both.
		if got, _ := r.ExclusiveComponentOf(f.p1, f.doc2); got {
			t.Fatal("ExclusiveComponentOf of non-component = true")
		}
		if got, _ := r.SharedComponentOf(f.p1, f.doc2); got {
			t.Fatal("SharedComponentOf of non-component = true")
		}
	})
}

func TestLevelOf(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		f := newDocFixture(t)
		r := open(f.e)
		cases := []struct {
			a, b uid.UID
			want int
		}{
			{f.s1, f.doc1, 1},
			{f.p1, f.doc1, 2},
			{f.pShared, f.doc2, 2},
			{f.p1, f.doc2, -1},
			{f.doc1, f.p1, -1},
		}
		for _, c := range cases {
			got, err := r.LevelOf(c.a, c.b)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("LevelOf(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
			}
		}
		// Shortest path: attach p1 directly to doc1's annotations is illegal
		// (shared+exclusive), so test shortest-path with a second section
		// route instead: doc1 -> s2 (adopt) makes pShared reachable two ways,
		// level stays 2.
		if err := f.e.Attach(f.doc1, "Sections", f.s2); err != nil {
			t.Fatal(err)
		}
		r = open(f.e)
		if got, _ := r.LevelOf(f.pShared, f.doc1); got != 2 {
			t.Fatalf("LevelOf after extra path = %d", got)
		}
	})
}

func TestRootsOf(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		f := newDocFixture(t)
		r := open(f.e)
		roots, err := r.RootsOf(f.pShared)
		if err != nil {
			t.Fatal(err)
		}
		want := asSet([]uid.UID{f.doc1, f.doc2})
		if len(roots) != len(want) {
			t.Fatalf("roots = %v", roots)
		}
		for _, r := range roots {
			if !want[r] {
				t.Fatalf("unexpected root %v", r)
			}
		}
		// A root is its own root.
		roots, _ = r.RootsOf(f.doc1)
		if !reflect.DeepEqual(roots, []uid.UID{f.doc1}) {
			t.Fatalf("roots of root = %v", roots)
		}
	})
}

func TestQueryErrorsOnMissing(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		f := newDocFixture(t)
		r := open(f.e)
		ghost := uid.UID{Class: 1, Serial: 404}
		if _, err := r.ComponentsOf(ghost, QueryOpts{}); err == nil {
			t.Fatal("ComponentsOf ghost succeeded")
		}
		if _, err := r.ParentsOf(ghost, QueryOpts{}); err == nil {
			t.Fatal("ParentsOf ghost succeeded")
		}
		if _, err := r.AncestorsOf(ghost, QueryOpts{}); err == nil {
			t.Fatal("AncestorsOf ghost succeeded")
		}
		if _, err := r.ComponentOf(ghost, f.doc1); err == nil {
			t.Fatal("ComponentOf ghost succeeded")
		}
		if _, err := r.ChildOf(f.s1, ghost); err == nil {
			t.Fatal("ChildOf ghost succeeded")
		}
		if _, err := r.RootsOf(ghost); err == nil {
			t.Fatal("RootsOf ghost succeeded")
		}
		if _, err := r.LevelOf(ghost, f.doc1); err == nil {
			t.Fatal("LevelOf ghost succeeded")
		}
		if _, err := r.ChildOf(ghost, f.doc1); !errors.Is(err, ErrNoObject) {
			t.Fatalf("ChildOf ghost child error = %v", err)
		}
		if _, err := r.ExclusiveComponentOf(ghost, f.doc1); !errors.Is(err, ErrNoObject) {
			t.Fatalf("ExclusiveComponentOf ghost error = %v", err)
		}
		if _, err := r.SharedComponentOf(f.note, ghost); !errors.Is(err, ErrNoObject) {
			t.Fatalf("SharedComponentOf ghost error = %v", err)
		}
		if _, err := r.Partitions(ghost); !errors.Is(err, ErrNoObject) {
			t.Fatalf("Partitions ghost error = %v", err)
		}
	})
}

func TestComponentsOfSubclassFilter(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		// Class filters accept instances of subclasses.
		cat := schema.NewCatalog()
		cat.DefineClass(schema.ClassDef{Name: "Part"})
		cat.DefineClass(schema.ClassDef{Name: "Bolt", Superclasses: []string{"Part"}})
		cat.DefineClass(schema.ClassDef{Name: "Asm", Attributes: []schema.AttrSpec{
			schema.NewCompositeSetAttr("Parts", "Part"),
		}})
		e := NewEngine(cat)
		asm := mustNew(t, e, "Asm", nil)
		bolt := mustNew(t, e, "Bolt", nil, ParentSpec{Parent: asm.UID(), Attr: "Parts"})
		r := open(e)
		got, err := r.ComponentsOf(asm.UID(), QueryOpts{Classes: []string{"Part"}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []uid.UID{bolt.UID()}) {
			t.Fatalf("subclass filter = %v", got)
		}
	})
}

func TestDescribe(t *testing.T) {
	f := newDocFixture(t)
	s, err := f.e.Describe(f.doc1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) == 0 || s[:8] != "Document" {
		t.Fatalf("Describe = %q", s)
	}
}

func TestParentsAncestorsBothFlags(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		// Exclusive && Shared both true means "no edge filter" for the upward
		// queries too, matching the ComponentsOf boundary behavior.
		f := newDocFixture(t)
		r := open(f.e)
		for _, q := range []QueryOpts{{}, {Exclusive: true, Shared: true}} {
			parents, err := r.ParentsOf(f.pShared, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(asSet(parents), asSet([]uid.UID{f.s1, f.s2})) {
				t.Fatalf("opts %+v: parents = %v", q, parents)
			}
			ancs, err := r.AncestorsOf(f.pShared, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(asSet(ancs), asSet([]uid.UID{f.s1, f.s2, f.doc1, f.doc2})) {
				t.Fatalf("opts %+v: ancestors = %v", q, ancs)
			}
		}
		// Exclusive-only keeps only the X edge: note's single parent edge is
		// exclusive, pShared's are both shared.
		if got, _ := r.ParentsOf(f.pShared, QueryOpts{Exclusive: true}); len(got) != 0 {
			t.Fatalf("exclusive parents of shared component = %v", got)
		}
		if got, _ := r.AncestorsOf(f.note, QueryOpts{Exclusive: true}); !reflect.DeepEqual(got, []uid.UID{f.doc1}) {
			t.Fatalf("exclusive ancestors = %v", got)
		}
		if got, _ := r.AncestorsOf(f.note, QueryOpts{Shared: true}); len(got) != 0 {
			t.Fatalf("shared ancestors of exclusive component = %v", got)
		}
	})
}

func TestAncestorsParentsSubclassFilter(t *testing.T) {
	eachSource(t, func(t *testing.T, open func(*Engine) querySource) {
		// Class filters on the upward queries accept subclass instances: a
		// filter on "Asm" matches a parent that is a SubAsm.
		cat := schema.NewCatalog()
		cat.DefineClass(schema.ClassDef{Name: "Part"})
		cat.DefineClass(schema.ClassDef{Name: "Asm", Attributes: []schema.AttrSpec{
			schema.NewCompositeSetAttr("Parts", "Part"),
		}})
		cat.DefineClass(schema.ClassDef{Name: "SubAsm", Superclasses: []string{"Asm"}})
		e := NewEngine(cat)
		sub := mustNew(t, e, "SubAsm", nil)
		bolt := mustNew(t, e, "Part", nil, ParentSpec{Parent: sub.UID(), Attr: "Parts"})

		r := open(e)
		got, err := r.ParentsOf(bolt.UID(), QueryOpts{Classes: []string{"Asm"}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []uid.UID{sub.UID()}) {
			t.Fatalf("subclass-filtered parents = %v", got)
		}
		got, err = r.AncestorsOf(bolt.UID(), QueryOpts{Classes: []string{"Asm"}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []uid.UID{sub.UID()}) {
			t.Fatalf("subclass-filtered ancestors = %v", got)
		}
		// A filter naming the subclass must not match plain superclass parents
		// elsewhere — here it simply keeps matching the SubAsm instance, and an
		// unrelated class name filters everything out.
		if got, _ := r.AncestorsOf(bolt.UID(), QueryOpts{Classes: []string{"Part"}}); len(got) != 0 {
			t.Fatalf("mismatched class filter = %v", got)
		}
	})
}
