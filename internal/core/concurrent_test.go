package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/uid"
)

// treeEngine builds a uniform exclusive-composite tree of the given depth
// and fanout over a single Node class, returning the engine and the root.
func treeEngine(t *testing.T, depth, fanout int) (*Engine, uid.UID) {
	t.Helper()
	cat := schema.NewCatalog()
	if _, err := cat.DefineClass(schema.ClassDef{Name: "Node", Attributes: []schema.AttrSpec{
		schema.NewCompositeSetAttr("Kids", "Node"),
	}}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat)
	root := mustNew(t, e, "Node", nil).UID()
	frontier := []uid.UID{root}
	for d := 0; d < depth; d++ {
		var next []uid.UID
		for _, p := range frontier {
			for i := 0; i < fanout; i++ {
				next = append(next, mustNew(t, e, "Node", nil, ParentSpec{Parent: p, Attr: "Kids"}).UID())
			}
		}
		frontier = next
	}
	return e, root
}

// TestConcurrentMixedQueries runs 8 goroutines of mixed read-only queries
// against a static graph and asserts every goroutine sees the same
// results a single-threaded run produces. Under -race this also proves
// the read path takes no write locks and performs no hidden mutation.
func TestConcurrentMixedQueries(t *testing.T) {
	f := newDocFixture(t)

	type expectation struct {
		comps, ancs, parents, roots []uid.UID
		compOf                      bool
		level                       int
		parts                       PartitionSets
	}
	snapshot := func() (expectation, error) {
		var ex expectation
		var err error
		if ex.comps, err = f.e.ComponentsOf(f.doc1, QueryOpts{}); err != nil {
			return ex, err
		}
		if ex.ancs, err = f.e.AncestorsOf(f.pShared, QueryOpts{}); err != nil {
			return ex, err
		}
		if ex.parents, err = f.e.ParentsOf(f.pShared, QueryOpts{}); err != nil {
			return ex, err
		}
		if ex.roots, err = f.e.RootsOf(f.p1); err != nil {
			return ex, err
		}
		if ex.compOf, err = f.e.ComponentOf(f.pShared, f.doc2); err != nil {
			return ex, err
		}
		if ex.level, err = f.e.LevelOf(f.pShared, f.doc1); err != nil {
			return ex, err
		}
		if ex.parts, err = f.e.Partitions(f.pShared); err != nil {
			return ex, err
		}
		return ex, nil
	}
	want, err := snapshot()
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, iters = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, err := snapshot()
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d iter %d: results diverged: got %+v want %+v", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if hits := f.e.Observability().Snapshot().Counters["core_cache_plan_hits_total"]; hits == 0 {
		t.Fatal("expected plan memo hits under repeated queries")
	}
}

// TestStrictDanglingComponent constructs a dangling forward composite
// reference via Evict (the undo primitive bypasses the Deletion Rule's
// unlinking) and checks that lenient queries skip it while Strict ones
// surface ErrDangling.
func TestStrictDanglingComponent(t *testing.T) {
	f := newDocFixture(t)
	f.e.Evict(f.note) // doc1.Annotations still references note
	got, err := f.e.ComponentsOf(f.doc1, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if asSet(got)[f.note] {
		t.Fatalf("lenient query returned evicted component: %v", got)
	}
	if _, err := f.e.ComponentsOf(f.doc1, QueryOpts{Strict: true}); !errors.Is(err, ErrDangling) {
		t.Fatalf("strict query error = %v, want ErrDangling", err)
	}
}

// TestStrictDanglingAncestor is the reverse-direction case: evicting a
// parent leaves the child's reverse reference dangling. The lenient query
// keeps reporting the parent (reverse references are read as stored, as
// in ParentsOf), while Strict reports the integrity error.
func TestStrictDanglingAncestor(t *testing.T) {
	f := newDocFixture(t)
	f.e.Evict(f.doc1) // note's reverse reference to doc1 now dangles
	got, err := f.e.AncestorsOf(f.note, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uid.UID{f.doc1}) {
		t.Fatalf("lenient ancestors = %v, want [%v]", got, f.doc1)
	}
	if _, err := f.e.AncestorsOf(f.note, QueryOpts{Strict: true}); !errors.Is(err, ErrDangling) {
		t.Fatalf("strict ancestors error = %v, want ErrDangling", err)
	}
}

// TestAncestorsAfterWrites checks that the next query after any mutation
// touching the ancestor graph sees the new graph, and that repeated
// queries agree.
func TestAncestorsAfterWrites(t *testing.T) {
	f := newDocFixture(t)
	e := f.e
	want := asSet([]uid.UID{f.s1, f.s2, f.doc1, f.doc2})
	first, err := e.AncestorsOf(f.pShared, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(asSet(first), want) {
		t.Fatalf("ancestors = %v", first)
	}
	again, err := e.AncestorsOf(f.pShared, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("repeated ancestors diverged: %v vs %v", again, first)
	}

	// A new shared parent anywhere in the graph must appear.
	s3 := mustNew(t, e, "Section", nil).UID()
	if err := e.Attach(s3, "Content", f.pShared); err != nil {
		t.Fatal(err)
	}
	got, err := e.AncestorsOf(f.pShared, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want[s3] = true
	if !reflect.DeepEqual(asSet(got), want) {
		t.Fatalf("after attach: ancestors = %v", got)
	}

	// Detaching restores the old set.
	if err := e.Detach(s3, "Content", f.pShared); err != nil {
		t.Fatal(err)
	}
	delete(want, s3)
	got, err = e.AncestorsOf(f.pShared, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(asSet(got), want) {
		t.Fatalf("after detach: ancestors = %v", got)
	}

	// Deleting a grandparent removes its subtree: doc2 takes its
	// dependent section s2 with it.
	if _, err := e.Delete(f.doc2); err != nil {
		t.Fatal(err)
	}
	got, err = e.AncestorsOf(f.pShared, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(asSet(got), asSet([]uid.UID{f.s1, f.doc1})) {
		t.Fatalf("after delete: ancestors = %v", got)
	}
	checkClean(t, e)
}

// TestPartitionsAfterDetach checks Definition 1 (§2.2) against the
// Figure 5 fixture, and that the sets follow a detach.
func TestPartitionsAfterDetach(t *testing.T) {
	f := newDocFixture(t)
	p, err := f.e.Partitions(f.pShared)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(asSet(p.DS), asSet([]uid.UID{f.s1, f.s2})) || len(p.IX)+len(p.DX)+len(p.IS) != 0 {
		t.Fatalf("pShared partitions = %+v", p)
	}
	if p, _ = f.e.Partitions(f.note); !reflect.DeepEqual(p.DX, []uid.UID{f.doc1}) {
		t.Fatalf("note partitions = %+v", p)
	}
	if p, _ = f.e.Partitions(f.img); !reflect.DeepEqual(p.IS, []uid.UID{f.doc1}) {
		t.Fatalf("img partitions = %+v", p)
	}
	if err := f.e.Detach(f.doc1, "Figures", f.img); err != nil {
		t.Fatal(err)
	}
	if p, _ = f.e.Partitions(f.img); len(p.IS) != 0 {
		t.Fatalf("after detach: img partitions = %+v", p)
	}
	if _, err := f.e.Partitions(uid.UID{Class: 1, Serial: 404}); !errors.Is(err, ErrNoObject) {
		t.Fatalf("ghost partitions error = %v", err)
	}
}

// TestDeferredEvolutionVisibleToQueries: a deferred schema change
// mutates no object when it is made, yet the next query must answer as if
// it had been applied (the read path's staleness check applies it).
func TestDeferredEvolutionVisibleToQueries(t *testing.T) {
	f := newDocFixture(t)
	e := f.e
	if got, _ := e.AncestorsOf(f.note, QueryOpts{}); !reflect.DeepEqual(got, []uid.UID{f.doc1}) {
		t.Fatalf("ancestors = %v", got)
	}
	if p, _ := e.Partitions(f.note); !reflect.DeepEqual(p.DX, []uid.UID{f.doc1}) {
		t.Fatalf("partitions = %+v", p)
	}
	// Deferred I2 (exclusive -> shared): the note's reverse reference flag
	// is rewritten lazily, on the next read.
	if err := e.ChangeAttributeType(0, "Document", "Annotations", schema.ChangeToShared, true); err != nil {
		t.Fatal(err)
	}
	p, err := e.Partitions(f.note)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.DX) != 0 || !reflect.DeepEqual(p.DS, []uid.UID{f.doc1}) {
		t.Fatalf("after deferred I2: partitions = %+v", p)
	}
	// Deferred drop-composite: the reverse reference itself goes away, so
	// the ancestor set shrinks on next access.
	if err := e.ChangeAttributeType(0, "Document", "Annotations", schema.ChangeDropComposite, true); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.AncestorsOf(f.note, QueryOpts{}); len(got) != 0 {
		t.Fatalf("after deferred drop: ancestors = %v", got)
	}
}

// TestConcurrentQueriesDuringWrites interleaves a writer goroutine with
// query goroutines: results must always be one of the graph's consistent
// states (never a torn read), and the engine must not deadlock.
func TestConcurrentQueriesDuringWrites(t *testing.T) {
	e, root := treeEngine(t, 3, 3)
	base, err := e.ComponentsOf(root, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := mustNew(t, e, "Node", nil, ParentSpec{Parent: root, Attr: "Kids"})
			if _, err := e.Delete(n.UID()); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				got, err := e.ComponentsOf(root, QueryOpts{})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				// The writer only ever adds/removes one direct child of
				// root; every snapshot is base or base plus that child.
				if len(got) != len(base) && len(got) != len(base)+1 {
					t.Errorf("torn read: %d components, base %d", len(got), len(base))
					return
				}
				if _, err := e.AncestorsOf(base[len(base)-1], QueryOpts{}); err != nil {
					t.Errorf("ancestors: %v", err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	checkClean(t, e)
}
