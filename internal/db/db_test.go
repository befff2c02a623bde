package db

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/uid"
	"repro/internal/value"
)

func defineDocSchema(t *testing.T, d *DB) {
	t.Helper()
	if _, err := d.DefineClass(schema.ClassDef{Name: "Paragraph", Attributes: []schema.AttrSpec{
		schema.NewAttr("Text", schema.StringDomain),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DefineClass(schema.ClassDef{Name: "Document", Versionable: true, Attributes: []schema.AttrSpec{
		schema.NewAttr("Title", schema.StringDomain),
		schema.NewCompositeSetAttr("Paras", "Paragraph"),
	}}); err != nil {
		t.Fatal(err)
	}
}

func TestInMemoryBasics(t *testing.T) {
	d, err := Open(Options{})
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
	// The facade queries work.
	if ok, _ := d.ChildOf(para.UID(), doc.UID()); !ok {
		t.Fatal("ChildOf wrong")
	}
	comps, _ := d.ComponentsOf(doc.UID(), core.QueryOpts{})
	if len(comps) != 1 || comps[0] != para.UID() {
		t.Fatalf("components = %v", comps)
	}
	// Delete cascades to the dependent paragraph.
	if _, err := d.Delete(doc.UID()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uid.UID{doc.UID(), para.UID()} {
		if _, err := d.Get(id); err == nil {
			t.Fatalf("%v survives its delete", id)
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	doc, _ := d.Make("Document", map[string]value.Value{"Title": value.Str("persisted")})
	para, _ := d.Make("Paragraph", map[string]value.Value{"Text": value.Str("body")},
		core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	// Schema restored.
	if !d2.Catalog().Has("Document") {
		t.Fatal("catalog lost")
	}
	// Objects restored with attributes and reverse refs.
	o, err := d2.Get(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := o.Get("Title").AsString(); s != "persisted" {
		t.Fatalf("Title = %v", o.Get("Title"))
	}
	po, err := d2.Get(para.UID())
	if err != nil {
		t.Fatal(err)
	}
	if !po.HasReverse(doc.UID()) {
		t.Fatal("reverse ref lost")
	}
	// New objects do not collide with restored UIDs.
	n, err := d2.Make("Paragraph", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.UID() == para.UID() {
		t.Fatal("UID collision after reopen")
	}
	// Composite semantics still work.
	deleted, err := d2.Delete(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 2 {
		t.Fatalf("deleted = %v", deleted)
	}
}

func TestCrashRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	doc, _ := d.Make("Document", map[string]value.Value{"Title": value.Str("A")})
	// Checkpoint, then more work that lives only in the WAL.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	para, _ := d.Make("Paragraph", map[string]value.Value{"Text": value.Str("unflushed")},
		core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
	if err := d.Set(doc.UID(), "Title", value.Str("B")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: drop everything without Close/Checkpoint.
	d.Abandon()

	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer d2.Close()
	o, err := d2.Get(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := o.Get("Title").AsString(); s != "B" {
		t.Fatalf("post-checkpoint write lost: Title = %v", o.Get("Title"))
	}
	po, err := d2.Get(para.UID())
	if err != nil {
		t.Fatalf("WAL-only object lost: %v", err)
	}
	if s, _ := po.Get("Text").AsString(); s != "unflushed" {
		t.Fatalf("Text = %v", po.Get("Text"))
	}
	if !po.HasReverse(doc.UID()) {
		t.Fatal("reverse ref lost in recovery")
	}
	if v := d2.Engine().Integrity(); len(v) != 0 {
		t.Fatalf("integrity after recovery: %v", v)
	}
}

func TestCrashRecoveryDelete(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(Options{Dir: dir, SyncWAL: true})
	defineDocSchema(t, d)
	doc, _ := d.Make("Document", nil)
	d.Checkpoint()
	if _, err := d.Delete(doc.UID()); err != nil {
		t.Fatal(err)
	}
	d.Abandon() // crash

	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := d2.Get(doc.UID()); !errors.Is(err, core.ErrNoObject) {
		t.Fatalf("deleted object resurrected: %v", err)
	}
}

func TestVersionsThroughFacade(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(Options{Dir: dir})
	defineDocSchema(t, d)
	var g, v1 uid.UID
	err := d.Run(func(tx *txn.Txn) error {
		var v0 uid.UID
		var err error
		g, v0, err = d.Versions().CreateVersionable(tx, "Document", map[string]value.Value{
			"Title": value.Str("v0"),
		})
		if err != nil {
			return err
		}
		v1, err = d.Versions().Derive(tx, v0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.Versions().IsGeneric(g) || !d2.Versions().IsVersion(v1) {
		t.Fatal("version bookkeeping lost across reopen")
	}
	def, err := d2.Versions().DefaultVersion(g)
	if err != nil || def != v1 {
		t.Fatalf("default = %v, %v", def, err)
	}
}

// TestDeleteVersionRetriedAfterDeadlock: a deadlock that aborts a
// one-statement delete-version after its delete puts the version's
// bookkeeping back with the object, so DB.Run's retry deletes it again.
func TestDeleteVersionRetriedAfterDeadlock(t *testing.T) {
	d, _ := Open(Options{})
	defineDocSchema(t, d)
	var g, v0, v1 uid.UID
	err := d.Run(func(tx *txn.Txn) (err error) {
		if g, v0, err = d.Versions().CreateVersionable(tx, "Document", nil); err != nil {
			return err
		}
		v1, err = d.Versions().Derive(tx, v0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	attempts := 0
	err = d.Run(func(tx *txn.Txn) error {
		attempts++
		if err := d.Versions().DeleteVersion(tx, v1); err != nil {
			return err
		}
		if attempts == 1 {
			return fmt.Errorf("after the delete: %w", lock.ErrDeadlock)
		}
		return nil
	})
	if err != nil || attempts != 2 {
		t.Fatalf("retried delete-version = %v after %d attempts", err, attempts)
	}
	info, err := d.Versions().Info(g)
	if err != nil || len(info.Versions) != 1 || info.Versions[0] != v0 {
		t.Fatalf("versions of g = %v, %v; want [%v]", info.Versions, err, v0)
	}
	if d.Versions().IsVersion(v1) || d.Engine().Exists(v1) {
		t.Fatal("v1 survived the retried delete")
	}
}

func TestAuthzThroughFacade(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(Options{Dir: dir})
	defineDocSchema(t, d)
	doc, _ := d.Make("Document", nil)
	para, _ := d.Make("Paragraph", nil, core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
	if err := d.Authz().GrantObject("alice", doc.UID(), authz.SR); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	ok, err := d2.Authz().Check("alice", para.UID(), authz.Read)
	if err != nil || !ok {
		t.Fatalf("implicit auth lost across reopen: %v %v", ok, err)
	}
}

func TestTransactionsThroughFacade(t *testing.T) {
	d, _ := Open(Options{})
	defer d.Close()
	defineDocSchema(t, d)
	var doc uid.UID
	err := d.Run(func(tx *txn.Txn) error {
		o, err := tx.New("Document", map[string]value.Value{"Title": value.Str("tx")})
		if err != nil {
			return err
		}
		doc = o.UID()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(doc); err != nil {
		t.Fatal("committed object missing")
	}
}

func TestUseAfterClose(t *testing.T) {
	d, _ := Open(Options{})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after close: %v", err)
	}
}

func TestWALGrowsAndCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(Options{Dir: dir})
	defineDocSchema(t, d)
	for i := 0; i < 50; i++ {
		if _, err := d.Make("Paragraph", map[string]value.Value{"Text": value.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	d.wal.Sync()
	st, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("WAL empty despite writes")
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ = os.Stat(filepath.Join(dir, walFile))
	if st.Size() != 0 {
		t.Fatalf("WAL not truncated by checkpoint: %d bytes", st.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, prevWALFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint left its predecessor log behind: %v", err)
	}
	d.Close()
}

func TestOpenRejectsCorruptMetadata(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(Options{Dir: dir})
	defineDocSchema(t, d)
	d.Make("Document", nil)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the catalog: Open must fail loudly, not half-load.
	path := filepath.Join(dir, "catalog.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("open with corrupt catalog succeeded")
	}
}

// TestOpenRejectsCorruptSnapshot flips one byte in the middle of the
// snapshot: unlike a torn log tail, damage there is never tolerated, or
// recovery would silently drop the objects it holds.
func TestOpenRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(Options{Dir: dir})
	defineDocSchema(t, d)
	for i := 0; i < 20; i++ {
		d.Make("Document", map[string]value.Value{"Title": value.Str("x")})
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	os.WriteFile(path, b, 0o644)
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, storage.ErrCorruptWAL) {
		t.Fatalf("open with a corrupt snapshot: %v, want ErrCorruptWAL", err)
	}
}

func TestOpenOnFileFails(t *testing.T) {
	// Dir pointing at an existing regular file must error.
	f := filepath.Join(t.TempDir(), "plain")
	os.WriteFile(f, []byte("x"), 0o644)
	if _, err := Open(Options{Dir: f}); err == nil {
		t.Fatal("open on a regular file succeeded")
	}
}

func TestCopyCompositeThroughFacade(t *testing.T) {
	d, _ := Open(Options{})
	defer d.Close()
	defineDocSchema(t, d)
	doc, _ := d.Make("Document", map[string]value.Value{"Title": value.Str("orig")})
	para, _ := d.Make("Paragraph", map[string]value.Value{"Text": value.Str("body")},
		core.ParentSpec{Parent: doc.UID(), Attr: "Paras"})
	copyOf := func(root uid.UID) (cp uid.UID, err error) {
		err = d.Run(func(tx *txn.Txn) (err error) {
			cp, err = tx.Copy(root)
			return err
		})
		return cp, err
	}
	copyID, err := copyOf(doc.UID())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := d.Get(copyID)
	if err != nil {
		t.Fatal(err)
	}
	paras := cp.Get("Paras").Refs(nil)
	if s, _ := cp.Get("Title").AsString(); s != "orig" || len(paras) != 1 || paras[0] == para.UID() {
		t.Fatalf("copy = Title %v, Paras %v; want a deep copy of the paragraph", cp.Get("Title"), paras)
	}
	po, err := d.Get(paras[0])
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := po.Get("Text").AsString(); s != "body" {
		t.Fatalf("copied Text = %v", po.Get("Text"))
	}
	if _, err := copyOf(uid.UID{Class: 9, Serial: 9}); err == nil {
		t.Fatal("copy of a missing object succeeded")
	}
}
