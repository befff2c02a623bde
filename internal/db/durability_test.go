package db

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/uid"
	"repro/internal/value"
)

// TestCheckpointNeverPersistsUncommittedWrite: a checkpoint taken while a
// transaction is open writes only committed state to its snapshot. The
// open transaction rewrites one document's title and creates another
// document; a checkpoint then runs and the process crashes. Recovery
// must find neither: the log is redo-only, so replay could not undo
// them.
func TestCheckpointNeverPersistsUncommittedWrite(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	ids := make([]uid.UID, 20)
	for i := range ids {
		o, err := d.Make("Document", map[string]value.Value{"Title": value.Str("committed")})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = o.UID()
	}
	tx := d.Begin()
	if err := tx.WriteAttr(ids[0], "Title", value.Str("UNCOMMITTED")); err != nil {
		t.Fatal(err)
	}
	made, err := tx.New("Document", map[string]value.Value{"Title": value.Str("UNCOMMITTED")})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		if err := d.Set(id, "Title", value.Str("rewritten")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
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
	o, err := r.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := o.Get("Title").AsString(); s != "committed" {
		t.Fatalf("title after recovery = %q, want the committed value", s)
	}
	if r.Engine().Exists(made.UID()) {
		t.Fatal("an uncommitted creation survived a checkpoint and a crash")
	}
	o, err = r.Get(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := o.Get("Title").AsString(); s != "rewritten" {
		t.Fatalf("committed title after recovery = %q", s)
	}
}

// TestCheckpointKeepsConcurrentCommits: a checkpoint racing SyncWAL
// writers must not rotate out the log records of a commit its snapshot
// lacks. Four writers own sixteen documents each and rewrite them, and
// each also creates documents with a paragraph and cascade-deletes them
// again, while checkpoints run back to back; after a crash every
// document must hold the last value its writer saw acknowledged, every
// acknowledged creation must be there with its paragraph, and no
// acknowledged deletion may come back.
func TestCheckpointKeepsConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	const writers, docs = 4, 64
	ids := make([]uid.UID, docs)
	for i := range ids {
		o, err := d.Make("Document", map[string]value.Value{"Title": value.Str("v0")})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = o.UID()
	}
	last := make([]string, docs)
	for i := range last {
		last[i] = "v0"
	}
	// made and gone hold, per writer, the documents (each with its
	// paragraph) whose creation and whose cascading deletion were
	// acknowledged.
	made := make([][][2]uid.UID, writers)
	gone := make([][][2]uid.UID, writers)
	stop := make(chan struct{})
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 1; ; n++ {
				for i := w; i < docs; i += writers {
					select {
					case <-stop:
						return
					default:
					}
					v := fmt.Sprintf("w%d-%d", w, n)
					if err := d.Set(ids[i], "Title", value.Str(v)); err != nil {
						errs <- err
						return
					}
					last[i] = v
				}
				var pair [2]uid.UID
				err := d.Run(func(tx *txn.Txn) error {
					doc, err := tx.New("Document", map[string]value.Value{"Title": value.Str("made")})
					if err != nil {
						return err
					}
					para, err := tx.New("Paragraph", nil, core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
					if err != nil {
						return err
					}
					pair = [2]uid.UID{doc.UID(), para.UID()}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				made[w] = append(made[w], pair)
				if n%2 == 0 {
					victim := made[w][0]
					if _, err := d.Delete(victim[0]); err != nil {
						errs <- err
						return
					}
					made[w] = made[w][1:]
					gone[w] = append(gone[w], victim)
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
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
	lost := 0
	for i, id := range ids {
		o, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if s, _ := o.Get("Title").AsString(); s != last[i] {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged final writes lost across a crash", lost, docs)
	}
	for w := range made {
		for _, pair := range made[w] {
			for _, id := range pair {
				if !r.Engine().Exists(id) {
					t.Fatalf("acknowledged creation of %v lost across a crash", id)
				}
			}
		}
		for _, pair := range gone[w] {
			for _, id := range pair {
				if r.Engine().Exists(id) {
					t.Fatalf("acknowledged cascading deletion of %v undone by a crash", id)
				}
			}
		}
	}
	if v := r.Engine().Integrity(); len(v) != 0 {
		t.Fatalf("integrity violations after recovery: %v", v)
	}
}

// TestAbortTouchesNeitherLogNorSnapshot: an abort is in-memory only. A
// transaction that creates, rewrites and deletes objects and then
// aborts must leave the log the size it was, and a checkpoint after it
// must write none of its effects.
func TestAbortTouchesNeitherLogNorSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defineDocSchema(t, d)
	doc, err := d.Make("Document", map[string]value.Value{"Title": value.Str("T")})
	if err != nil {
		t.Fatal(err)
	}
	para, err := d.Make("Paragraph", map[string]value.Value{"Text": value.Str("p")},
		core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	size := walSize(t, dir)
	tx := d.Begin()
	if err := tx.WriteAttr(doc.UID(), "Title", value.Str("aborted")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.New("Paragraph", map[string]value.Value{"Text": value.Str("aborted")},
		core.ParentSpec{Parent: doc.UID(), Attr: "Paras"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete(para.UID()); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := walSize(t, dir); got != size {
		t.Fatalf("wal.log grew from %d to %d bytes across an abort", size, got)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := storage.ReplaySnapshot(filepath.Join(dir, snapshotFile), func(rec storage.WALRecord) error {
		n++
		o, err := encoding.DecodeObject(rec.Data)
		if err != nil {
			return err
		}
		if s, _ := o.Get("Title").AsString(); rec.UID == doc.UID() && s != "T" {
			t.Errorf("snapshot holds title %q, want the committed T", s)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("snapshot holds %d objects after the abort, want the 2 committed", n)
	}
	got, err := d.Get(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := got.Get("Title").AsString(); s != "T" {
		t.Fatalf("title after abort = %q, want T", s)
	}
	if _, err := d.Get(para.UID()); err != nil {
		t.Fatalf("deleted paragraph not restored by abort: %v", err)
	}
}

// TestSchemaChangeOverOpenTransaction: a schema change takes X on the
// classes it rewrites, so it waits for an open transaction that has
// already written one of their objects, and rewrites the object only
// after the transaction's outcome. Whatever that outcome, the object must
// read back after a clean close and after a crash exactly as it stood
// live, and the database must reopen.
func TestSchemaChangeOverOpenTransaction(t *testing.T) {
	changes := map[string]func(*DB) error{
		"rename": func(d *DB) error { return d.RenameAttribute("Document", "Title", "Name") },
		"drop-attribute": func(d *DB) error {
			_, err := d.DropAttribute("Document", "Title")
			return err
		},
		"drop-class": func(d *DB) error {
			_, err := d.DropClass("Document")
			return err
		},
	}
	for name, change := range changes {
		for _, commit := range []bool{true, false} {
			for _, crash := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/commit=%v/crash=%v", name, commit, crash), func(t *testing.T) {
					schemaChangeOverOpenTransaction(t, change, commit, crash)
				})
			}
		}
	}
}

func schemaChangeOverOpenTransaction(t *testing.T, change func(*DB) error, commit, crash bool) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	doc, err := d.Make("Document", map[string]value.Value{"Title": value.Str("committed")})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx := d.Begin()
	if err := tx.WriteAttr(doc.UID(), "Title", value.Str("in-flight")); err != nil {
		t.Fatal(err)
	}
	done := startBlocked(t, d, func() error { return change(d) })
	if commit {
		err = tx.Commit()
	} else {
		err = tx.Abort()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var want []byte
	if o, err := d.Get(doc.UID()); err == nil {
		want = encoding.EncodeObject(o)
	}
	if crash {
		err = d.Abandon()
	} else {
		err = d.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	var got []byte
	if o, err := r.Get(doc.UID()); err == nil {
		got = encoding.EncodeObject(o)
	}
	if string(got) != string(want) {
		t.Fatalf("recovered %q, live state was %q", got, want)
	}
}

// startBlocked runs op on its own goroutine and returns once op waits for
// a §7 lock, failing the test if op finishes first: the open transaction
// of the caller must hold it up. The channel yields op's result.
func startBlocked(t *testing.T, d *DB, op func() error) <-chan error {
	t.Helper()
	waits := d.Observability().Counter("lock_wait_total")
	before := waits.Load()
	done := make(chan error, 1)
	go func() { done <- op() }()
	deadline := time.Now().Add(10 * time.Second)
	for waits.Load() == before {
		select {
		case err := <-done:
			t.Fatalf("finished without waiting for the open transaction (err %v)", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("never waited for a lock")
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

// TestSchemaChurnKeepsStoreEqualToLive races committing and aborting
// transactions against attribute renames that rewrite the objects they
// hold. After a clean close the recovered objects must equal the live
// ones byte for byte.
func TestSchemaChurnKeepsStoreEqualToLive(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	const writers, docs = 4, 16
	var ids []uid.UID
	for i := 0; i < docs; i++ {
		doc, err := d.Make("Document", map[string]value.Value{"Title": value.Str("v0")})
		if err != nil {
			t.Fatal(err)
		}
		para, err := d.Make("Paragraph", map[string]value.Value{"Text": value.Str("p")},
			core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, doc.UID(), para.UID())
	}
	stop := make(chan struct{})
	errAbort := fmt.Errorf("deliberate abort")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				doc := ids[2*((w+n*writers)%docs)]
				err := d.Run(func(tx *txn.Txn) error {
					if err := tx.WriteAttr(doc, "Title", value.Str(fmt.Sprintf("w%d-%d", w, n))); err != nil {
						return err
					}
					if n%3 == 0 {
						return errAbort
					}
					return nil
				})
				if err != nil && err != errAbort {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	names := [2]string{"Paras", "Items"}
	for i := 0; i < 40; i++ {
		if err := d.RenameAttribute("Document", names[i%2], names[(i+1)%2]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	live := make(map[uid.UID]string)
	for _, id := range ids {
		o, err := d.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = string(encoding.EncodeObject(o))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, id := range ids {
		o, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(encoding.EncodeObject(o)); got != live[id] {
			t.Errorf("%v recovered %q, live state was %q", id, got, live[id])
		}
	}
}

// TestCheckpointSkipsUnchangedMetadata: a checkpoint rewrites only the
// metadata files whose contents changed; a rewrite replaces the file by
// rename, so an untouched file keeps its identity.
func TestCheckpointSkipsUnchangedMetadata(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	doc, err := d.Make("Document", map[string]value.Value{"Title": value.Str("a")})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stat := func(name string) os.FileInfo {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	cat := stat(catalogFile)
	if err := d.Set(doc.UID(), "Title", value.Str("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Make("Document", nil); err != nil {
		t.Fatal(err)
	}
	snap := stat(snapshotFile)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(cat, stat(catalogFile)) {
		t.Fatal("a checkpoint rewrote the unchanged catalog")
	}
	if os.SameFile(snap, stat(snapshotFile)) {
		t.Fatal("a checkpoint kept the old snapshot after an object was created")
	}
	if err := d.RenameAttribute("Document", "Title", "Name"); err != nil {
		t.Fatal(err)
	}
	if os.SameFile(cat, stat(catalogFile)) {
		t.Fatal("a schema change's checkpoint kept the old catalog")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	o, err := r.Get(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := o.Get("Name").AsString(); s != "b" {
		t.Fatalf("Name after reopen = %q, want b", s)
	}
}

// walSize returns the size of the database's log file.
func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// defineRigSchema declares Rig, whose Bolts are shared independent
// composite references to Bolt, and returns two rigs sharing one bolt.
func defineRigSchema(t *testing.T, d *DB) (rig1, rig2, bolt uid.UID) {
	t.Helper()
	if _, err := d.DefineClass(schema.ClassDef{Name: "Bolt", Attributes: []schema.AttrSpec{
		schema.NewAttr("Size", schema.IntDomain),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DefineClass(schema.ClassDef{Name: "Rig", Attributes: []schema.AttrSpec{
		schema.NewCompositeSetAttr("Bolts", "Bolt").WithExclusive(false).WithDependent(false),
	}}); err != nil {
		t.Fatal(err)
	}
	b, err := d.Make("Bolt", map[string]value.Value{"Size": value.Int(8)})
	if err != nil {
		t.Fatal(err)
	}
	var rigs [2]uid.UID
	for i := range rigs {
		r, err := d.Make("Rig", map[string]value.Value{"Bolts": value.RefSet(b.UID())})
		if err != nil {
			t.Fatal(err)
		}
		rigs[i] = r.UID()
	}
	return rigs[0], rigs[1], b.UID()
}

// TestMakeExclusiveWaitsForOpenTransaction: D3 (shared -> exclusive) is
// checked against the shared component's parents. An open transaction
// that detached one of two shared parents must not let the change pass
// on its uncommitted state: the change waits, and after the abort puts
// the second parent back, it is rejected, leaving no Topology Rule 3
// violation behind.
func TestMakeExclusiveWaitsForOpenTransaction(t *testing.T) {
	d, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	_, rig2, bolt := defineRigSchema(t, d)
	tx := d.Begin()
	if err := tx.Detach(rig2, "Bolts", bolt); err != nil {
		t.Fatal(err)
	}
	done := startBlocked(t, d, func() error { return d.MakeExclusive("Rig", "Bolts") })
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, core.ErrChangeRejected) {
		t.Fatalf("MakeExclusive after the abort = %v, want a D3 rejection", err)
	}
	if v := d.Engine().Integrity(); len(v) != 0 {
		t.Fatalf("integrity violations: %v", v)
	}
}

// TestAddSuperclassWaitsForNoInstanceWriter: adding a superclass
// rewrites no object, so its admission is the class X alone. A writer of
// a component, admitted through its unit root with no lock on the
// component's class, does not hold the change up.
func TestAddSuperclassWaitsForNoInstanceWriter(t *testing.T) {
	d, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defineDocSchema(t, d)
	if _, err := d.DefineClass(schema.ClassDef{Name: "Note", Attributes: []schema.AttrSpec{
		schema.NewAttr("Stamp", schema.IntDomain),
	}}); err != nil {
		t.Fatal(err)
	}
	doc, err := d.Make("Document", nil)
	if err != nil {
		t.Fatal(err)
	}
	para, err := d.Make("Paragraph", nil, core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
	if err != nil {
		t.Fatal(err)
	}
	tx := d.Begin()
	defer tx.Abort()
	if err := tx.WriteAttr(para.UID(), "Text", value.Str("open")); err != nil {
		t.Fatal(err)
	}
	waits := d.Observability().Counter("lock_wait_total")
	before := waits.Load()
	done := make(chan error, 1)
	go func() { done <- d.AddSuperclass("Paragraph", "Note") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AddSuperclass waited for the open writer of an instance")
	}
	if n := waits.Load() - before; n != 0 {
		t.Fatalf("AddSuperclass waited for %d locks", n)
	}
	if _, err := d.Catalog().Attribute("Paragraph", "Stamp"); err != nil {
		t.Fatalf("Paragraph did not inherit Stamp: %v", err)
	}
}

// TestCrashNeverRecoversUncommittedWriteThroughSchemaRewrite: a schema
// change rewrites the components of Document (I2 turns their reverse
// references shared) while a transaction that wrote one of them is still
// open. A crash before the transaction ends must recover the committed
// value, never the transaction's write carried by the rewrite.
func TestCrashNeverRecoversUncommittedWriteThroughSchemaRewrite(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	doc, err := d.Make("Document", nil)
	if err != nil {
		t.Fatal(err)
	}
	para, err := d.Make("Paragraph", map[string]value.Value{"Text": value.Str("committed")},
		core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
	if err != nil {
		t.Fatal(err)
	}
	tx := d.Begin()
	if err := tx.WriteAttr(para.UID(), "Text", value.Str("uncommitted")); err != nil {
		t.Fatal(err)
	}
	waits := d.Observability().Counter("lock_wait_total")
	before := waits.Load()
	done := make(chan error, 1)
	go func() { done <- d.ChangeAttributeType("Document", "Paras", schema.ChangeToShared, false) }()
	for waits.Load() == before && len(done) == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	o, err := r.Get(para.UID())
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := o.Get("Text").AsString(); s != "committed" {
		t.Fatalf("recovered Text %q, want the committed value", s)
	}
	// Let the change go on against the abandoned handle; it fails there.
	_ = tx.Abort()
	<-done
}
