package db

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/uid"
	"repro/internal/value"
)

// buildDoc creates one Document with n Paragraphs and returns the root
// UID plus every member in creation order.
func buildDoc(t *testing.T, d *DB, title string, n int) (uid.UID, []uid.UID) {
	t.Helper()
	doc, err := d.Make("Document", map[string]value.Value{"Title": value.Str(title)})
	if err != nil {
		t.Fatal(err)
	}
	members := []uid.UID{doc.UID()}
	for i := 0; i < n; i++ {
		p, err := d.Make("Paragraph", map[string]value.Value{"Text": value.Str(title)},
			core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, p.UID())
	}
	return doc.UID(), members
}

func TestOpenRejectsUnknownPlacement(t *testing.T) {
	if _, err := Open(Options{Placement: "bogus"}); err == nil {
		t.Fatal("Open accepted an unknown placement policy")
	}
	for _, p := range []string{"", storage.PlacementFirstParent, storage.PlacementClass, storage.PlacementUsage} {
		d, err := Open(Options{Placement: p})
		if err != nil {
			t.Fatalf("%q: %v", p, err)
		}
		want := p
		if want == "" {
			want = storage.PlacementFirstParent
		}
		if d.PlacementName() != want {
			t.Fatalf("PlacementName() = %q, want %q", d.PlacementName(), want)
		}
		d.Close()
	}
}

// TestReclusterMigratesHotUnit: write activity heats a unit; one pass
// migrates every member into the unit's own segment, chained
// contiguously, and the metrics record it.
func TestReclusterMigratesHotUnit(t *testing.T) {
	d, err := Open(Options{ReclusterHotMisses: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defineDocSchema(t, d)
	doc, members := buildDoc(t, d, "hot", 8)
	// A second, cold document must stay where it was born.
	coldDoc, coldMembers := buildDoc(t, d, "c", 1)
	_ = coldDoc

	n, err := d.ReclusterNow()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("migrated %d units, want 1", n)
	}
	seg, ok := d.Store().SegmentByName("unit:2.1")
	if !ok {
		t.Fatalf("unit segment missing; doc=%v", doc)
	}
	for _, id := range members {
		if got, _ := d.Store().SegmentOf(id); got != seg {
			t.Fatalf("member %v in segment %d, want %d", id, got, seg)
		}
		if _, err := d.Store().Get(id); err != nil {
			t.Fatalf("member %v unreadable after migration: %v", id, err)
		}
	}
	if got, _ := d.Store().SegmentOf(coldMembers[0]); got == seg {
		t.Fatal("cold unit was migrated too")
	}
	if err := d.Store().CheckPlacement(); err != nil {
		t.Fatal(err)
	}
	st := d.ReclusterStatus()
	if st.Migrations != 1 || st.ObjectsMoved != uint64(len(members)) || st.Passes == 0 {
		t.Fatalf("status = %+v", st)
	}
	// The logical graph is untouched.
	comps, err := d.ComponentsOf(doc, core.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != len(members)-1 {
		t.Fatalf("components after migration = %d, want %d", len(comps), len(members)-1)
	}
	// A second pass over the already-placed unit is a no-op (heat was
	// consumed; even re-heated it is skipped as already placed).
	for i := 0; i < 8; i++ {
		if _, err := d.Make("Paragraph", nil, core.ParentSpec{Parent: doc, Attr: "Paras"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.ReclusterNow(); err != nil {
		t.Fatal(err)
	}
	if err := d.Store().CheckPlacement(); err != nil {
		t.Fatal(err)
	}
}

// TestReclusterBackgroundLoop: the ticker-driven loop migrates without
// an explicit ReclusterNow call, like the version GC.
func TestReclusterBackgroundLoop(t *testing.T) {
	d, err := Open(Options{ReclusterInterval: 2 * time.Millisecond, ReclusterHotMisses: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defineDocSchema(t, d)
	buildDoc(t, d, "bg", 8)
	deadline := time.Now().Add(5 * time.Second)
	for d.ReclusterStatus().Migrations == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background loop migrated nothing; status = %+v", d.ReclusterStatus())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := d.Store().CheckPlacement(); err != nil {
		t.Fatal(err)
	}
}

// TestReclusterSurvivesReopen: migrations are WAL-logged, so a crash
// right after a pass (no checkpoint) recovers the migrated layout.
func TestReclusterSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true, ReclusterHotMisses: 4})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	doc, members := buildDoc(t, d, "dur", 6)
	if n, err := d.ReclusterNow(); err != nil || n != 1 {
		t.Fatalf("ReclusterNow = %d, %v", n, err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seg, ok := r.Store().SegmentByName("unit:2.1")
	if !ok {
		t.Fatal("unit segment lost across recovery")
	}
	for _, id := range members {
		if got, _ := r.Store().SegmentOf(id); got != seg {
			t.Fatalf("member %v recovered into segment %d, want %d", id, got, seg)
		}
	}
	if err := r.Store().CheckPlacement(); err != nil {
		t.Fatal(err)
	}
	comps, err := r.ComponentsOf(doc, core.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != len(members)-1 {
		t.Fatalf("recovered components = %d, want %d", len(comps), len(members)-1)
	}
}

// TestReclusterCrashAtEveryOffset is the S2 regression: replay of a WAL
// truncated at EVERY frame boundary (and a few torn mid-frame points)
// across a half-migrated unit must leave every surviving object readable
// from exactly one location. The log here interleaves the unit's creating
// OpPuts with the pass's OpMoves, so prefixes cover: no moves yet, some
// members moved, and all members moved.
func TestReclusterCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true, ReclusterHotMisses: 2})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	_, members := buildDoc(t, d, "crash", 5)
	if n, err := d.ReclusterNow(); err != nil || n != 1 {
		t.Fatalf("ReclusterNow = %d, %v", n, err)
	}
	// A write AFTER the migration: its replay must follow the object to
	// the migrated segment, not resurrect it in the class segment.
	if err := d.Set(members[1], "Text", value.Str("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walFile)
	var cuts []int64
	if err := storage.ReplayWALFrames(walPath, func(_ storage.WALRecord, start, end int64) error {
		if start == 0 {
			cuts = append(cuts, 0)
		}
		cuts = append(cuts, end, end-3) // frame boundary + torn tail
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	copyDir := func(t *testing.T, cut int64) string {
		t.Helper()
		dst := t.TempDir()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == walFile {
				if cut > int64(len(b)) {
					cut = int64(len(b))
				}
				b = b[:cut]
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}
	for _, cut := range cuts {
		if cut < 0 {
			continue
		}
		crashed := copyDir(t, cut)
		r, err := Open(Options{Dir: crashed})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		// Exactly-one-location invariant: every directory entry readable,
		// no stale duplicate slot anywhere.
		if err := r.Store().CheckPlacement(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Every recovered object decodes and is engine-visible.
		for _, id := range r.Store().UIDs() {
			if _, err := r.Get(id); err != nil {
				t.Fatalf("cut %d: object %v in store but not engine: %v", cut, id, err)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
	_ = wal
	_ = members
}

// defineSharedDocSchema is defineDocSchema plus a NON-exclusive "Refs"
// composite set on Document, so a paragraph can be shared into a second
// hierarchy.
func defineSharedDocSchema(t *testing.T, d *DB) {
	t.Helper()
	if _, err := d.DefineClass(schema.ClassDef{Name: "Paragraph", Attributes: []schema.AttrSpec{
		schema.NewAttr("Text", schema.StringDomain),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DefineClass(schema.ClassDef{Name: "Document", Attributes: []schema.AttrSpec{
		schema.NewAttr("Title", schema.StringDomain),
		schema.NewCompositeSetAttr("Paras", "Paragraph"),
		schema.NewCompositeSetAttr("Refs", "Paragraph").WithExclusive(false).WithDependent(false),
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestReclusterPlacementProperty drives the reclusterer over randomly
// built hierarchies, with shared paragraphs attached into several units,
// under every placement policy. After each pass every object must stay
// readable from exactly one location and every unit must keep its
// components: migration changes pages, never the logical graph.
func TestReclusterPlacementProperty(t *testing.T) {
	for _, policy := range []string{storage.PlacementFirstParent, storage.PlacementClass, storage.PlacementUsage} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", policy, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				d, err := Open(Options{Placement: policy, ReclusterHotMisses: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				defineSharedDocSchema(t, d)
				var roots, all []uid.UID
				for i := 0; i < 8; i++ {
					root, members := buildDoc(t, d, fmt.Sprintf("p%d", i), 1+rng.Intn(6))
					roots = append(roots, root)
					all = append(all, members...)
				}
				// Shared paragraphs: members of two units at once.
				for i := 0; i < 4; i++ {
					p, err := d.Make("Paragraph", map[string]value.Value{"Text": value.Str("shared")},
						core.ParentSpec{Parent: roots[rng.Intn(len(roots))], Attr: "Refs"})
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, p.UID())
					if err := d.Attach(roots[rng.Intn(len(roots))], "Refs", p.UID()); err != nil {
						t.Fatal(err)
					}
				}
				comps := func() map[uid.UID]int {
					n := make(map[uid.UID]int)
					for _, root := range roots {
						cs, err := d.ComponentsOf(root, core.QueryOpts{})
						if err != nil {
							t.Fatal(err)
						}
						n[root] = len(cs)
					}
					return n
				}
				before := comps()
				for pass := 0; pass < 4; pass++ {
					for i := 0; i < 8; i++ {
						root := roots[rng.Intn(len(roots))]
						if err := d.Set(root, "Title", value.Str(fmt.Sprintf("w%d.%d", pass, i))); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := d.ReclusterNow(); err != nil {
						t.Fatal(err)
					}
					for _, id := range all {
						if _, err := d.Store().Get(id); err != nil {
							t.Fatalf("pass %d: %v unreadable: %v", pass, id, err)
						}
					}
					if err := d.CheckPlacement(); err != nil {
						t.Fatalf("pass %d: %v", pass, err)
					}
					for root, n := range comps() {
						if n != before[root] {
							t.Fatalf("pass %d: unit %v has %d components, had %d", pass, root, n, before[root])
						}
					}
				}
				if d.ReclusterStatus().Migrations == 0 {
					t.Fatal("no unit was migrated")
				}
			})
		}
	}
}
