package db

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/uid"
	"repro/internal/value"
)

// TestRecoveryDiscardsUncommittedTail is the pinned regression for
// transactional WAL replay: work left uncommitted at a crash must not
// survive recovery, while everything committed before it must. Before
// the WAL carried transaction boundaries, replay applied the tail
// records and resurrected the half-done transaction.
func TestRecoveryDiscardsUncommittedTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	doc, err := d.Make("Document", map[string]value.Value{"Title": value.Str("T")})
	if err != nil {
		t.Fatal(err)
	}
	// A committed transaction: its paragraph must survive the crash.
	var committed uid.UID
	if err := d.Run(func(tx *txn.Txn) error {
		p, err := tx.New("Paragraph", map[string]value.Value{"Text": value.Str("kept")},
			core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
		if err != nil {
			return err
		}
		committed = p.UID()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// An uncommitted transaction: multiple writes, then the process dies.
	tx := d.Begin()
	lost1, err := tx.New("Paragraph", map[string]value.Value{"Text": value.Str("lost")},
		core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteAttr(doc.UID(), "Title", value.Str("mutated")); err != nil {
		t.Fatal(err)
	}
	lost2, err := tx.New("Paragraph", map[string]value.Value{"Text": value.Str("lost too")},
		core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Get(committed); err != nil {
		t.Fatalf("committed paragraph lost: %v", err)
	}
	for _, id := range []uid.UID{lost1.UID(), lost2.UID()} {
		if _, err := r.Get(id); err == nil {
			t.Fatalf("uncommitted object %v survived recovery", id)
		}
	}
	got, err := r.Get(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	// The uncommitted title write must not have been replayed.
	if s, ok := got.Get("Title").AsString(); !ok || s != "T" {
		t.Fatalf("doc title = %v, want the committed value", got.Get("Title"))
	}
	if v := r.Engine().Integrity(); len(v) != 0 {
		t.Fatalf("integrity violations after recovery: %v", v)
	}
}

// cascadeSchema: Part has a dependent-exclusive child (Cell, cascades on
// delete) and may be used by any number of independent-shared Assembly
// parents (which survive the delete but lose their forward reference).
func defineCascadeSchema(t *testing.T, d *DB) {
	t.Helper()
	if _, err := d.DefineClass(schema.ClassDef{Name: "Cell", Attributes: []schema.AttrSpec{
		schema.NewAttr("Tag", schema.StringDomain),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DefineClass(schema.ClassDef{Name: "Part", Attributes: []schema.AttrSpec{
		schema.NewCompositeAttr("Core", "Cell"), // dependent exclusive
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DefineClass(schema.ClassDef{Name: "Assembly", Attributes: []schema.AttrSpec{
		schema.NewCompositeSetAttr("Uses", "Part").WithExclusive(false).WithDependent(false),
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidCascadeDeleteIsAtomic kills the durable image between two
// OpPut records of a single cascading delete's WAL group and asserts
// that recovery replays none of it: the Deletion Rule is all-or-nothing.
// Before transactional replay, the prefix of the cascade was applied —
// a surviving parent lost its forward reference while the child kept the
// reverse one, an integrity violation no API call can produce.
func TestCrashMidCascadeDeleteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineCascadeSchema(t, d)
	x, err := d.Make("Part", nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.Make("Cell", map[string]value.Value{"Tag": value.Str("c")},
		core.ParentSpec{Parent: x.UID(), Attr: "Core"})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := d.Make("Assembly", nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d.Make("Assembly", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []uid.UID{p1.UID(), p2.UID()} {
		if err := d.Attach(p, "Uses", x.UID()); err != nil {
			t.Fatal(err)
		}
	}
	// Freeze the pre-delete state, then run the cascade in a transaction.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx := d.Begin()
	deleted, err := tx.Delete(x.UID())
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 2 {
		t.Fatalf("cascade deleted %v, want part+cell", deleted)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}

	// The WAL now holds exactly one transactional group: Begin, the
	// surviving parents' rewrites (OpPut P1, OpPut P2), the cascade's
	// deletes, Commit. Cut the log after the FIRST OpPut — between the
	// two parent rewrites — simulating a crash mid-cascade.
	walPath := filepath.Join(dir, "wal.log")
	var ops []storage.WALOp
	cut := int64(-1)
	if err := storage.ReplayWALFrames(walPath, func(rec storage.WALRecord, _, end int64) error {
		ops = append(ops, rec.Op)
		if rec.Op == storage.OpPut && cut < 0 {
			cut = end
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []storage.WALOp{storage.OpBegin, storage.OpPut, storage.OpPut,
		storage.OpDelete, storage.OpDelete, storage.OpCommit}
	if len(ops) != len(want) {
		t.Fatalf("WAL group = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("WAL group = %v, want %v", ops, want)
		}
	}
	if cut < 0 {
		t.Fatal("no OpPut found in the WAL")
	}
	if err := os.Truncate(walPath, cut); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v := r.Engine().Integrity(); len(v) != 0 {
		t.Fatalf("partial cascade replayed; integrity violations: %v", v)
	}
	// Nothing of the delete may have applied: X and its cell are intact
	// and both assemblies still reference X.
	for _, id := range []uid.UID{x.UID(), c.UID(), p1.UID(), p2.UID()} {
		if _, err := r.Get(id); err != nil {
			t.Fatalf("object %v missing after mid-cascade crash: %v", id, err)
		}
	}
	for _, p := range []uid.UID{p1.UID(), p2.UID()} {
		po, _ := r.Get(p)
		if !po.Get("Uses").ContainsRef(x.UID()) {
			t.Fatalf("assembly %v lost its reference to the part: cascade prefix applied", p)
		}
	}
}

// TestAbortedTransactionDiscardedOnReplay: an aborted transaction's
// group is dropped before it reaches the log, so replay finds nothing
// of it and the committed state around it comes back intact.
func TestAbortedTransactionDiscardedOnReplay(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	doc, err := d.Make("Document", map[string]value.Value{"Title": value.Str("T")})
	if err != nil {
		t.Fatal(err)
	}
	tx := d.Begin()
	aborted, err := tx.New("Paragraph", map[string]value.Value{"Text": value.Str("rolled back")},
		core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Get(aborted.UID()); err == nil {
		t.Fatal("aborted object survived recovery")
	}
	if _, err := r.Get(doc.UID()); err != nil {
		t.Fatalf("unrelated committed object lost: %v", err)
	}
	if v := r.Engine().Integrity(); len(v) != 0 {
		t.Fatalf("integrity violations after replaying an aborted txn: %v", v)
	}
}

// TestCloseReleasesResourcesOnCheckpointFailure: a failing final
// checkpoint must still close the WAL and release the directory lock (no
// leaked handles), report the error, and leave the logs intact so a
// reopen recovers the committed state.
func TestCloseReleasesResourcesOnCheckpointFailure(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(1)
	d, err := Open(Options{Dir: dir, SnapshotFile: fs.Create, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	doc, err := d.Make("Document", map[string]value.Value{"Title": value.Str("T")})
	if err != nil {
		t.Fatal(err)
	}
	// Every snapshot write from here on fails: Close's checkpoint cannot
	// write its snapshot.
	fs.Inject(faultfs.Fault{Kind: faultfs.WriteErr, Prob: 1})
	if err := d.Close(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Close = %v, want the injected checkpoint failure", err)
	}
	// The DB is closed for real — not stuck half-open.
	if err := d.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	// The WAL survived the failed checkpoint: a plain reopen recovers.
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Get(doc.UID()); err != nil {
		t.Fatalf("document lost after failed-checkpoint close: %v", err)
	}
}
