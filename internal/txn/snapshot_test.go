package txn

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/uid"
	"repro/internal/value"
)

// TestSnapshotAtomicCommit: version boundaries are installed at commit,
// so a snapshot begun mid-transaction sees none of its writes — even
// while the writer holds §7 X locks on the objects being read — and a
// snapshot begun after commit sees all of them at once.
func TestSnapshotAtomicCommit(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)

	setup := m.Begin()
	doc, err := setup.New("Document", map[string]value.Value{"Title": value.Str("v1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := m.Begin()
	if err := tx.WriteAttr(doc.UID(), "Title", value.Str("v2")); err != nil {
		t.Fatal(err)
	}
	para, err := tx.New("Paragraph", nil, core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
	if err != nil {
		t.Fatal(err)
	}

	// Mid-transaction snapshot: the writer holds X locks on doc, yet the
	// query below must complete immediately (it takes no §7 locks) and
	// must see the pre-transaction state.
	mid := m.BeginSnapshot()
	done := make(chan error, 1)
	go func() {
		o, err := mid.Get(doc.UID())
		if err != nil {
			done <- err
			return
		}
		if got, _ := o.Get("Title").AsString(); got != "v1" {
			t.Errorf("mid-txn snapshot Title = %q, want %q", got, "v1")
		}
		if mid.Exists(para.UID()) {
			t.Error("mid-txn snapshot sees uncommitted creation")
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot read blocked behind a writer's X locks")
	}
	mid.Release()

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Post-commit snapshot: both writes appear together.
	after := m.BeginSnapshot()
	defer after.Release()
	o, err := after.Get(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := o.Get("Title").AsString(); got != "v2" {
		t.Fatalf("post-commit snapshot Title = %q, want %q", got, "v2")
	}
	comps, err := after.ComponentsOf(doc.UID(), core.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 1 || comps[0] != para.UID() {
		t.Fatalf("post-commit snapshot components = %v, want [%v]", comps, para.UID())
	}
}

// TestSnapshotAbortInvisible: an aborted transaction installs no version
// boundary — snapshots begun after the abort see the pre-transaction
// state, and the version store is not polluted by the undo writes.
func TestSnapshotAbortInvisible(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)

	setup := m.Begin()
	doc, err := setup.New("Document", map[string]value.Value{"Title": value.Str("keep")})
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	liveBefore := e.VersionsLive()

	tx := m.Begin()
	if err := tx.WriteAttr(doc.UID(), "Title", value.Str("drop")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.New("Paragraph", nil, core.ParentSpec{Parent: doc.UID(), Attr: "Paras"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	snap := m.BeginSnapshot()
	defer snap.Release()
	o, err := snap.Get(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := o.Get("Title").AsString(); got != "keep" {
		t.Fatalf("snapshot after abort: Title = %q, want %q", got, "keep")
	}
	if snap.Len() != 1 {
		t.Fatalf("snapshot after abort: Len = %d, want 1", snap.Len())
	}
	if live := e.VersionsLive(); live != liveBefore {
		t.Fatalf("abort changed mvcc_versions_live: %d -> %d", liveBefore, live)
	}
}

// TestSnapshotZeroLocks asserts the acceptance criterion directly: a
// full sweep of snapshot queries acquires zero §7 locks, measured by the
// lock manager's own lock_acquire_total / lock_wait_total instruments.
func TestSnapshotZeroLocks(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)

	tx := m.Begin()
	doc, err := tx.New("Document", map[string]value.Value{"Title": value.Str("d")})
	if err != nil {
		t.Fatal(err)
	}
	paras := make([]uid.UID, 0, 4)
	for i := 0; i < 4; i++ {
		p, err := tx.New("Paragraph", nil, core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
		if err != nil {
			t.Fatal(err)
		}
		paras = append(paras, p.UID())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	reg := m.Observability()
	acquires := reg.Counter("lock_acquire_total")
	waits := reg.Counter("lock_wait_total")
	acqBefore, waitBefore := acquires.Load(), waits.Load()

	snap := m.BeginSnapshot()
	if _, err := snap.Get(doc.UID()); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.ComponentsOf(doc.UID(), core.QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.AncestorsOf(paras[0], core.QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.ParentsOf(paras[1], core.QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Partitions(paras[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.RootsOf(paras[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.ComponentOf(paras[0], doc.UID()); err != nil {
		t.Fatal(err)
	}
	snap.Release()

	if d := acquires.Load() - acqBefore; d != 0 {
		t.Fatalf("snapshot queries acquired %d §7 locks, want 0", d)
	}
	if d := waits.Load() - waitBefore; d != 0 {
		t.Fatalf("snapshot queries waited on %d §7 locks, want 0", d)
	}
}

// unitEngine is docEngine with a Section level between Document and
// Paragraph, every composite attribute dependent exclusive.
func unitEngine(t *testing.T) *core.Engine {
	t.Helper()
	cat := schema.NewCatalog()
	for _, def := range []schema.ClassDef{
		{Name: "Paragraph", Attributes: []schema.AttrSpec{schema.NewAttr("Text", schema.StringDomain)}},
		{Name: "Section", Attributes: []schema.AttrSpec{schema.NewCompositeSetAttr("Paras", "Paragraph")}},
		{Name: "Document", Attributes: []schema.AttrSpec{
			schema.NewAttr("Title", schema.StringDomain),
			schema.NewCompositeSetAttr("Sections", "Section"),
		}},
	} {
		if _, err := cat.DefineClass(def); err != nil {
			t.Fatal(err)
		}
	}
	return core.NewEngine(cat)
}

// TestCascadeDeleteLeavesOneVersionPerObject: a transaction builds a
// 1 x 8 x 16 composite (137 objects) and commits; a second deletes its
// root — the Deletion Rule cascades to all 137 — and commits. With no
// snapshot open the version store is then back to one version per live
// object, without any sweep.
func TestCascadeDeleteLeavesOneVersionPerObject(t *testing.T) {
	e := unitEngine(t)
	m := NewManager(e)
	keep, err := e.New("Document", map[string]value.Value{"Title": value.Str("keep")})
	if err != nil {
		t.Fatal(err)
	}

	build := m.Begin()
	doc, err := build.New("Document", map[string]value.Value{"Title": value.Str("unit")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		sec, err := build.New("Section", nil, core.ParentSpec{Parent: doc.UID(), Attr: "Sections"})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 16; j++ {
			if _, err := build.New("Paragraph", map[string]value.Value{"Text": value.Str("p")},
				core.ParentSpec{Parent: sec.UID(), Attr: "Paras"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := build.Commit(); err != nil {
		t.Fatal(err)
	}
	if live, n := e.VersionsLive(), e.Len(); n != 138 || live != int64(n) {
		t.Fatalf("after the build: %d versions live for %d objects, want 138 for 138", live, n)
	}

	del := m.Begin()
	gone, err := del.Delete(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	if len(gone) != 137 {
		t.Fatalf("cascade deleted %d objects, want 137", len(gone))
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	if live, n := e.VersionsLive(), e.Len(); n != 1 || live != int64(n) {
		t.Fatalf("after the cascade: %d versions live for %d objects, want 1 for 1", live, n)
	}
	snap := m.BeginSnapshot()
	defer snap.Release()
	if snap.Len() != 1 || !snap.Exists(keep.UID()) {
		t.Fatalf("snapshot after the cascade: Len = %d, want only %v", snap.Len(), keep.UID())
	}
}

// TestSnapshotsUnderAutoCommitChurn: snapshots begin and release while an
// auto-commit writer rewrites one object. The writer stores each
// commit's own sequence number in the object, so a snapshot at sequence
// S must read exactly S: publish-time and release-time pruning may never
// cut the version a snapshot needs. Once everything is released the
// store is back to one version per object.
func TestSnapshotsUnderAutoCommitChurn(t *testing.T) {
	e := docEngine(t)
	m := NewManager(e)
	doc, err := e.New("Document", nil)
	if err != nil {
		t.Fatal(err)
	}
	id := doc.UID()
	write := func() error {
		// The only writer: the next boundary is this Set's own.
		return e.Set(id, "Title", value.Str(strconv.FormatUint(e.CommitSeq()+1, 10)))
	}
	if err := write(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	errs := make(chan string, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.BeginSnapshot()
				o, err := snap.Get(id)
				var got string
				if err == nil {
					got, _ = o.Get("Title").AsString()
				}
				if want := strconv.FormatUint(snap.Seq(), 10); got != want {
					errs <- "snapshot at " + want + " read " + strconv.Quote(got)
					snap.Release()
					return
				}
				snap.Release()
				reads.Add(1)
			}
		}()
	}
	// Keep writing until the readers have overlapped the churn.
	for i := 0; i < 2000 || (reads.Load() < 200 && len(errs) == 0); i++ {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if live, n := e.VersionsLive(), e.Len(); live != int64(n) {
		t.Fatalf("after every snapshot released: %d versions live for %d objects", live, n)
	}
}
