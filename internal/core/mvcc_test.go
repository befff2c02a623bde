package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

// mvccEngine builds a self-referential Part class (shared composite
// Subparts, so re-parenting and multi-parent shapes are legal) for the
// snapshot tests.
func mvccEngine(t *testing.T) *Engine {
	t.Helper()
	cat := schema.NewCatalog()
	if _, err := cat.DefineClass(schema.ClassDef{Name: "Part", Attributes: []schema.AttrSpec{
		schema.NewAttr("Name", schema.StringDomain),
		schema.NewCompositeSetAttr("Subparts", "Part").WithExclusive(false).WithDependent(false),
	}}); err != nil {
		t.Fatal(err)
	}
	return NewEngine(cat)
}

// mvccChain builds root -> mid -> leaf and returns the three UIDs.
func mvccChain(t *testing.T, e *Engine) (root, mid, leaf uid.UID) {
	t.Helper()
	mk := func(name string) uid.UID {
		o, err := e.New("Part", map[string]value.Value{"Name": value.Str(name)})
		if err != nil {
			t.Fatal(err)
		}
		return o.UID()
	}
	root, mid, leaf = mk("root"), mk("mid"), mk("leaf")
	for _, link := range [][2]uid.UID{{root, mid}, {mid, leaf}} {
		if err := e.Attach(link[0], "Subparts", link[1]); err != nil {
			t.Fatal(err)
		}
	}
	return root, mid, leaf
}

func wantUIDs(t *testing.T, label string, got, want []uid.UID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, want %v", label, got, want)
		}
	}
}

// TestSnapshotIsolation: a snapshot keeps serving the commit boundary it
// was begun at while engine-direct writers move the live state — including
// across deletes — and a snapshot begun later sees the new state.
func TestSnapshotIsolation(t *testing.T) {
	e := mvccEngine(t)
	root, mid, leaf := mvccChain(t, e)

	snap := e.BeginSnapshot()
	defer snap.Release()

	// Move the live state: rename the leaf, grow a new child under root,
	// and detach+delete mid's subtree link.
	if err := e.Set(leaf, "Name", value.Str("renamed")); err != nil {
		t.Fatal(err)
	}
	extra, err := e.New("Part", map[string]value.Value{"Name": value.Str("extra")},
		ParentSpec{Parent: root, Attr: "Subparts"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Delete(leaf); err != nil {
		t.Fatal(err)
	}

	// The snapshot still sees the old world.
	o, err := snap.Get(leaf)
	if err != nil {
		t.Fatalf("snapshot lost deleted leaf: %v", err)
	}
	if got, _ := o.Get("Name").AsString(); got != "leaf" {
		t.Fatalf("snapshot leaf Name = %q, want %q", got, "leaf")
	}
	comps, err := snap.ComponentsOf(root, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantUIDs(t, "snapshot components", comps, []uid.UID{mid, leaf})
	anc, err := snap.AncestorsOf(leaf, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantUIDs(t, "snapshot ancestors", anc, []uid.UID{mid, root})
	if snap.Exists(extra.UID()) {
		t.Fatal("snapshot sees an object created after it began")
	}
	if snap.Len() != 3 {
		t.Fatalf("snapshot Len = %d, want 3", snap.Len())
	}

	// A fresh snapshot sees the new world.
	now := e.BeginSnapshot()
	defer now.Release()
	if now.Exists(leaf) {
		t.Fatal("fresh snapshot still sees deleted leaf")
	}
	comps, err = now.ComponentsOf(root, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantUIDs(t, "fresh components", comps, []uid.UID{mid, extra.UID()})
}

// TestSnapshotLockFreeUnderExclusiveLatch: snapshot queries complete
// while the engine latch is held exclusively — the zero-engine-mutex
// half of the acceptance criterion (the zero-§7-locks half lives in
// internal/txn, where the lock manager is instrumented).
func TestSnapshotLockFreeUnderExclusiveLatch(t *testing.T) {
	e := mvccEngine(t)
	root, _, leaf := mvccChain(t, e)
	snap := e.BeginSnapshot()
	defer snap.Release()

	e.mu.Lock()
	done := make(chan error, 1)
	go func() {
		if _, err := snap.ComponentsOf(root, QueryOpts{}); err != nil {
			done <- err
			return
		}
		if _, err := snap.AncestorsOf(leaf, QueryOpts{}); err != nil {
			done <- err
			return
		}
		if _, err := snap.Partitions(leaf); err != nil {
			done <- err
			return
		}
		if _, err := snap.RootsOf(leaf); err != nil {
			done <- err
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("snapshot query under exclusive latch: %v", err)
		}
	case <-time.After(5 * time.Second):
		e.mu.Unlock()
		t.Fatal("snapshot query blocked while the engine latch was held exclusively")
	}
	e.mu.Unlock()
}

// TestSnapshotCacheIsolation pins the staleness-window fix: live queries
// answered after a commit must never leak into a snapshot begun before
// that commit, however the two interleave.
func TestSnapshotCacheIsolation(t *testing.T) {
	e := mvccEngine(t)
	root, mid, leaf := mvccChain(t, e)

	// A live query at the pre-commit state.
	if _, err := e.AncestorsOf(leaf, QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	snap := e.BeginSnapshot()
	defer snap.Release()

	// Commit a new grandparent and query the post-commit order live.
	super, err := e.New("Part", map[string]value.Value{"Name": value.Str("super")})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Attach(super.UID(), "Subparts", root); err != nil {
		t.Fatal(err)
	}
	live, err := e.AncestorsOf(leaf, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantUIDs(t, "live ancestors", live, []uid.UID{mid, root, super.UID()})

	// The pre-commit snapshot must keep answering with the pre-commit
	// order — twice, so a second answer is checked too.
	for i := 0; i < 2; i++ {
		got, err := snap.AncestorsOf(leaf, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		wantUIDs(t, fmt.Sprintf("snapshot ancestors (read %d)", i+1), got, []uid.UID{mid, root})
	}
}

// TestSnapshotCatalogIsolation pins the PR 6 follow-up fix: a snapshot
// answers with the schema catalog that was live at its commit boundary,
// not the evolving one. Dropping the composite attribute after
// BeginSnapshot must not change what the snapshot's traversals see —
// the pinned catalog still plans over Subparts — while live queries and
// snapshots begun after the evolution see the post-drop schema.
func TestSnapshotCatalogIsolation(t *testing.T) {
	e := mvccEngine(t)
	root, mid, leaf := mvccChain(t, e)

	snap := e.BeginSnapshot()
	defer snap.Release()

	if _, err := e.DropAttribute(0, "Part", "Subparts"); err != nil {
		t.Fatal(err)
	}
	// Live traversal: no composite attribute left to follow.
	live, err := e.ComponentsOf(root, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Fatalf("live components after drop = %v, want none", live)
	}

	// The pre-evolution snapshot still plans over Subparts and still sees
	// the full hierarchy — twice, so the memoized plan is checked too.
	for i := 0; i < 2; i++ {
		got, err := snap.ComponentsOf(root, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		wantUIDs(t, fmt.Sprintf("snapshot components (read %d)", i+1), got, []uid.UID{mid, leaf})
	}
	// Class filters resolve against the pinned catalog too.
	anc, err := snap.AncestorsOf(leaf, QueryOpts{Classes: []string{"Part"}})
	if err != nil {
		t.Fatal(err)
	}
	wantUIDs(t, "snapshot ancestors", anc, []uid.UID{mid, root})

	// A snapshot begun after the evolution pins the post-drop catalog.
	after := e.BeginSnapshot()
	defer after.Release()
	got, err := after.ComponentsOf(root, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("post-evolution snapshot components = %v, want none", got)
	}
}

// TestSnapshotCatalogViewShared: consecutive snapshots under an unchanged
// schema share one pinned clone; a catalog mutation makes the next
// snapshot pin a fresh one.
func TestSnapshotCatalogViewShared(t *testing.T) {
	e := mvccEngine(t)
	s1 := e.BeginSnapshot()
	s2 := e.BeginSnapshot()
	if s1.cat != s2.cat {
		t.Fatal("snapshots under an unchanged catalog pinned different clones")
	}
	s1.Release()
	s2.Release()
	if _, err := e.cat.DefineClass(schema.ClassDef{Name: "Other"}); err != nil {
		t.Fatal(err)
	}
	s3 := e.BeginSnapshot()
	defer s3.Release()
	if s3.cat == s1.cat {
		t.Fatal("snapshot after a catalog mutation reused the stale clone")
	}
	if !s3.cat.Has("Other") {
		t.Fatal("fresh clone missing the new class")
	}
}

// TestSnapshotTombstonePruned: once the only versions of a deleted
// object fall below the watermark its whole chain is reclaimed, and a
// later snapshot simply never sees the object.
func TestSnapshotTombstonePruned(t *testing.T) {
	e := mvccEngine(t)
	_, _, leaf := mvccChain(t, e)
	if _, err := e.Delete(leaf); err != nil {
		t.Fatal(err)
	}
	snap := e.BeginSnapshot()
	defer snap.Release()
	if snap.Exists(leaf) {
		t.Fatal("snapshot sees object whose tombstone passed the watermark")
	}
	if snap.Len() != e.Len() {
		t.Fatalf("snapshot Len = %d, engine Len = %d", snap.Len(), e.Len())
	}
}

// TestDeleteReclaimsChainAtOnce: with no snapshot open, deleting a
// committed object reclaims its whole version chain in the delete's own
// commit — no sweep runs — and a later snapshot does not see it.
func TestDeleteReclaimsChainAtOnce(t *testing.T) {
	e := mvccEngine(t)
	mvccChain(t, e)
	before := e.VersionsLive()
	o, err := e.New("Part", map[string]value.Value{"Name": value.Str("doomed")})
	if err != nil {
		t.Fatal(err)
	}
	id := o.UID()
	if err := e.Set(id, "Name", value.Str("rewritten")); err != nil {
		t.Fatal(err)
	}
	if live := e.VersionsLive(); live != before+1 {
		t.Fatalf("mvcc_versions_live = %d after create+rewrite, want %d", live, before+1)
	}
	if _, err := e.Delete(id); err != nil {
		t.Fatal(err)
	}
	if e.chainHead(id) != nil {
		t.Fatal("deleted object still has a version chain")
	}
	if live := e.VersionsLive(); live != before {
		t.Fatalf("mvcc_versions_live = %d after delete, want %d", live, before)
	}
	snap := e.BeginSnapshot()
	defer snap.Release()
	if snap.Exists(id) {
		t.Fatal("snapshot after the delete sees the object")
	}
}

// TestReleaseReclaimsPinnedVersions: churning one object with only
// short-lived snapshots holds the live-version gauge at a plateau
// (publish-time pruning), while a pinned snapshot grows the chain and its
// Release alone collapses it back — no sweep runs.
func TestReleaseReclaimsPinnedVersions(t *testing.T) {
	e := mvccEngine(t)
	o, err := e.New("Part", nil)
	if err != nil {
		t.Fatal(err)
	}
	id := o.UID()
	for i := 0; i < 2000; i++ {
		if err := e.Set(id, "Name", value.Str(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			s := e.BeginSnapshot()
			if !s.Exists(id) {
				t.Fatal("short-lived snapshot lost the object")
			}
			s.Release()
		}
	}
	// One live object, no active snapshot: the store should hold ~one
	// version per object, not thousands.
	churned := e.VersionsLive()
	if churned > int64(e.Len())+4 {
		t.Fatalf("mvcc_versions_live = %d after churn with short-lived snapshots (objects: %d)", churned, e.Len())
	}

	// A pinned snapshot grows the chain...
	pin := e.BeginSnapshot()
	for i := 0; i < 300; i++ {
		if err := e.Set(id, "Name", value.Str(fmt.Sprintf("pinned%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pinned := e.VersionsLive()
	if pinned < 200 {
		t.Fatalf("mvcc_versions_live = %d while a snapshot pins the watermark, want >= 200", pinned)
	}
	// ...and releasing it reclaims the tail.
	reclaimedBefore := e.o.mvccGCReclaimed.Load()
	pin.Release()
	if reclaimed := e.o.mvccGCReclaimed.Load() - reclaimedBefore; reclaimed < 200 {
		t.Fatalf("Release reclaimed %d nodes, want >= 200", reclaimed)
	}
	if live := e.VersionsLive(); live > int64(e.Len())+4 {
		t.Fatalf("mvcc_versions_live = %d after release (objects: %d)", live, e.Len())
	}
	t.Logf("objects %d: versions live %d after churn, %d while pinned, %d after Release; Release reclaimed %d",
		e.Len(), churned, pinned, e.VersionsLive(), e.o.mvccGCReclaimed.Load()-reclaimedBefore)
}

// TestSnapshotSeesSchemaDeletions: the objects a schema change deletes
// (DropClass instances and their dependent components) get tombstones in
// the change's commit boundary, so a snapshot begun after it no longer
// finds them while one begun before still does.
func TestSnapshotSeesSchemaDeletions(t *testing.T) {
	e := documentEngine(t)
	doc := mustNew(t, e, "Document", nil)
	note := mustNew(t, e, "Paragraph", nil, ParentSpec{Parent: doc.UID(), Attr: "Annotations"})
	before := e.BeginSnapshot()
	defer before.Release()
	if _, err := e.DropClass(0, "Document"); err != nil {
		t.Fatal(err)
	}
	after := e.BeginSnapshot()
	defer after.Release()
	for _, id := range []uid.UID{doc.UID(), note.UID()} {
		if _, err := before.Get(id); err != nil {
			t.Fatalf("snapshot before the drop lost %v: %v", id, err)
		}
		if _, err := after.Get(id); err == nil {
			t.Fatalf("snapshot after the drop still reads %v", id)
		}
	}
}
