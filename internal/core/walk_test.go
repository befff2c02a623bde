package core

import (
	"errors"
	"testing"

	"repro/internal/object"
	"repro/internal/uid"
	"repro/internal/value"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// unitEngine builds one read_hot-shaped unit on documentEngine: a
// Document holding sections Sections of paras Paragraphs each.
func unitEngine(t *testing.T, sections, paras int) (*Engine, uid.UID, uid.UID) {
	t.Helper()
	e := documentEngine(t)
	doc := mustNew(t, e, "Document", map[string]value.Value{"Title": value.Str("unit")})
	var leaf uid.UID
	for s := 0; s < sections; s++ {
		sec := mustNew(t, e, "Section", nil, ParentSpec{Parent: doc.UID(), Attr: "Sections"})
		for p := 0; p < paras; p++ {
			leaf = mustNew(t, e, "Paragraph", nil, ParentSpec{Parent: sec.UID(), Attr: "Content"}).UID()
		}
	}
	return e, doc.UID(), leaf
}

// TestComponentsOfAllocations: with the walk scratch pooled, a §3 walk
// over a 23-object unit allocates only the result it returns. Recording
// is off (a nil registry): the op record is the recorder's cost, not the
// walk's.
func TestComponentsOfAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts over a sync.Pool are not kept under -race")
	}
	e, doc, leaf := unitEngine(t, 2, 10)
	e.SetObservability(nil)
	if ids, err := e.ComponentsOf(doc, QueryOpts{}); err != nil || len(ids) != 22 {
		t.Fatalf("ComponentsOf = %d ids, %v; want 22", len(ids), err)
	}
	for _, c := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"ComponentsOf", 1, func() error { _, err := e.ComponentsOf(doc, QueryOpts{}); return err }},
		{"ComponentsOf level 1", 1, func() error { _, err := e.ComponentsOf(doc, QueryOpts{Level: 1}); return err }},
		{"AncestorsOf", 1, func() error { _, err := e.AncestorsOf(leaf, QueryOpts{}); return err }},
		{"RootsOf", 1, func() error { _, err := e.RootsOf(leaf); return err }},
		{"ComponentOf", 0, func() error { _, err := e.ComponentOf(leaf, doc); return err }},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("%s allocates %.1f times per call, want at most %.0f", c.name, allocs, c.max)
		}
	}
}

// lastWalk runs fn as a heads read and returns the scratch it ran with,
// as read left it.
func lastWalk(t *testing.T, e *Engine, fn func(r reader) error) (*walk, error) {
	t.Helper()
	var w *walk
	_, err := read(e.View, nil, func(r reader) (struct{}, error) {
		w = r.w
		return struct{}{}, fn(r)
	})
	return w, err
}

// pristine reports how w differs from an empty scratch holding nothing.
func pristine(w *walk) string {
	switch {
	case w.heads.e != nil || w.heads.ov != nil || w.heads.pend.e != nil || w.heads.pend.ceil != nil || w.heads.prof != nil:
		return "head source kept"
	case len(w.seen) != 0 || len(w.memo) != 0:
		return "visited set or plan memo kept"
	case len(w.frontier) != 0 || len(w.next) != 0 || len(w.kids) != 0 || len(w.out) != 0:
		return "buffers not emptied"
	}
	for _, s := range [][]*object.Object{w.frontier[:cap(w.frontier)], w.next[:cap(w.next)]} {
		for _, o := range s {
			if o != nil {
				return "an object slot still set"
			}
		}
	}
	return ""
}

// TestWalkReleasedEmpty: a returned scratch holds no object, overlay or
// engine, on the success path and on an error path alike.
func TestWalkReleasedEmpty(t *testing.T) {
	e, doc, leaf := unitEngine(t, 3, 4)
	w, err := lastWalk(t, e, func(r reader) error {
		_, err := r.components(doc, QueryOpts{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if why := pristine(w); why != "" {
		t.Fatalf("after a walk: %s", why)
	}
	w, err = lastWalk(t, e, func(r reader) error {
		_, err := r.ancestors(leaf, QueryOpts{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if why := pristine(w); why != "" {
		t.Fatalf("after an ancestors walk: %s", why)
	}

	// A strict walk over a dangling component fails mid-walk. Evict
	// drops the object without unlinking its parent's reference.
	e.Evict(leaf)
	w, err = lastWalk(t, e, func(r reader) error {
		_, err := r.components(doc, QueryOpts{Strict: true})
		return err
	})
	if !errors.Is(err, ErrDangling) {
		t.Fatalf("strict walk over a dangling component: %v, want ErrDangling", err)
	}
	if why := pristine(w); why != "" {
		t.Fatalf("after a failed walk: %s", why)
	}
}

// TestWalkPastCapNotPooled: a scratch whose visited set grew past
// maxPooledWalk is dropped as it is, not cleared into the pool.
func TestWalkPastCapNotPooled(t *testing.T) {
	e, doc, _ := unitEngine(t, 1, maxPooledWalk+1)
	w, err := lastWalk(t, e, func(r reader) error {
		_, err := r.components(doc, QueryOpts{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.seen) <= maxPooledWalk {
		t.Fatalf("a walk of %d objects was cleared for the pool", maxPooledWalk+2)
	}
}
