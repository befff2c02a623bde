package db

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/uid"
	"repro/internal/value"
)

// TestTxnCommitCrashAtEveryOffset is the commit-atomicity matrix on the
// single WAL: one transaction writes two composite units (two WriteAttr
// and two New), and the log is cut at every frame boundary and at torn
// mid-frame points. Each crash image must recover all-or-nothing — the
// transaction's writes and its created objects exactly when the cut
// keeps its OpCommit — and pass the placement check.
func TestTxnCommitCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	var docs [2]uid.UID
	for i := range docs {
		o, err := d.Make("Document", map[string]value.Value{"Title": value.Str("old")})
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = o.UID()
	}
	// Pin the baseline into the checkpoint so every cut exercises only
	// the transaction's records.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var paras [2]uid.UID
	if err := d.Run(func(tx *txn.Txn) error {
		for i, doc := range docs {
			if err := tx.WriteAttr(doc, "Title", value.Str("new")); err != nil {
				return err
			}
			p, err := tx.New("Paragraph", map[string]value.Value{"Text": value.Str("p")},
				core.ParentSpec{Parent: doc, Attr: "Paras"})
			if err != nil {
				return err
			}
			paras[i] = p.UID()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walFile)
	cuts := []int64{0}
	commitEnd := int64(-1)
	if err := storage.ReplayWALFrames(walPath, func(rec storage.WALRecord, start, end int64) error {
		cuts = append(cuts, start+(end-start)/2, end-3, end) // torn header/payload, boundary
		if rec.Op == storage.OpCommit {
			commitEnd = end
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if commitEnd < 0 {
		t.Fatal("no OpCommit in the WAL")
	}
	files := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}

	for _, cut := range cuts {
		crashed := t.TempDir()
		for name, b := range files {
			if name == walFile {
				b = b[:cut]
			}
			if err := os.WriteFile(filepath.Join(crashed, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r, err := Open(Options{Dir: crashed})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		committed := cut >= commitEnd
		want := "old"
		if committed {
			want = "new"
		}
		for i, doc := range docs {
			o, err := r.Get(doc)
			if err != nil {
				t.Fatalf("cut %d: baseline doc lost: %v", cut, err)
			}
			if got, _ := o.Get("Title").AsString(); got != want {
				t.Fatalf("cut %d (committed=%v): doc %d Title = %q", cut, committed, i, got)
			}
			if r.Store().Has(paras[i]) != committed {
				t.Fatalf("cut %d (committed=%v): paragraph %d present = %v", cut, committed, i, !committed)
			}
		}
		if err := r.CheckPlacement(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if v := r.Engine().Integrity(); len(v) != 0 {
			t.Fatalf("cut %d: integrity violations: %v", cut, v)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestOpenRefusesMultiShardManifest: a directory whose shards.json names
// more than one shard holds per-shard files a single-log store cannot
// read, so Open fails and names the file. A one-shard manifest is the
// single-log layout and opens as usual.
func TestOpenRefusesMultiShardManifest(t *testing.T) {
	for _, tc := range []struct {
		manifest string
		ok       bool
	}{
		{`{"shards":1}`, true},
		{`{"shards":4}`, false},
		{`not json`, false},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, shardsFile), []byte(tc.manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(Options{Dir: dir})
		if tc.ok {
			if err != nil {
				t.Fatalf("%s: %v", tc.manifest, err)
			}
			d.Close()
			continue
		}
		if err == nil {
			d.Close()
			t.Fatalf("%s: Open succeeded", tc.manifest)
		}
		if !strings.Contains(err.Error(), filepath.Join(dir, shardsFile)) {
			t.Fatalf("%s: error %q does not name the manifest", tc.manifest, err)
		}
	}
}

// TestReplayRejectsReservedOp: op 7 is reserved, so a log carrying it
// fails recovery as an unknown op rather than being misread.
func TestReplayRejectsReservedOp(t *testing.T) {
	dir := t.TempDir()
	w, err := storage.OpenWAL(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(storage.WALRecord{Op: 7, Txn: 1, Data: []byte{0}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := Open(Options{Dir: dir})
	if err == nil {
		d.Close()
		t.Fatal("Open replayed a log with op 7")
	}
	if !strings.Contains(err.Error(), "unknown WAL op 7") {
		t.Fatalf("error = %v, want an unknown-op failure", err)
	}
}

// TestSyncAutoCommitSkipsCoveredFsync: the fsync watermark lets an
// auto-commit boundary skip the fsync when an earlier sync already
// covered every appended record.
func TestSyncAutoCommitSkipsCoveredFsync(t *testing.T) {
	d, err := Open(Options{Dir: t.TempDir(), SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defineDocSchema(t, d)
	fsyncs := d.Observability().Counter("wal_fsync_total")
	before := fsyncs.Load()
	if _, err := d.Make("Document", map[string]value.Value{"Title": value.Str("a")}); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs.Load() - before; got != 1 {
		t.Fatalf("auto-commit write fsynced %d times, want 1", got)
	}
	h := &hook{d: d}
	if err := h.SyncAutoCommit(); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs.Load() - before; got != 1 {
		t.Fatalf("covered boundary fsynced again: %d fsyncs", got)
	}
}
