package db

import (
	"errors"
	"fmt"
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
// keeps its OpCommit.
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
			if r.Engine().Exists(paras[i]) != committed {
				t.Fatalf("cut %d (committed=%v): paragraph %d present = %v", cut, committed, i, !committed)
			}
		}
		if v := r.Engine().Integrity(); len(v) != 0 {
			t.Fatalf("cut %d: integrity violations: %v", cut, v)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestOpenRefusesMultiShardManifest: a directory an earlier release
// wrote — pages and their segment table, or a shard manifest — holds
// committed objects that replay from the snapshot and the log would
// silently ignore, so Open fails and names the file.
func TestOpenRefusesMultiShardManifest(t *testing.T) {
	for _, tc := range []struct{ file, content string }{
		{"shards.json", `{"shards":1}`},
		{"shards.json", `{"shards":4}`},
		{"shards.json", `not json`},
		{"pages.db", "\x00"},
		{"store.json", `{}`},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, tc.file)
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(Options{Dir: dir})
		if err == nil {
			d.Close()
			t.Fatalf("%s %s: Open succeeded", tc.file, tc.content)
		}
		if !errors.Is(err, ErrOldLayout) || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s %s: error %q is not ErrOldLayout naming the file", tc.file, tc.content, err)
		}
	}
}

// TestReplayRejectsReservedOp: ops 6 and 7 are reserved, so a log
// carrying either fails recovery as an unknown op rather than being
// misread.
func TestReplayRejectsReservedOp(t *testing.T) {
	for _, op := range []storage.WALOp{6, 7} {
		t.Run(fmt.Sprintf("op%d", op), func(t *testing.T) { testReplayRejectsOp(t, op) })
	}
}

func testReplayRejectsOp(t *testing.T, op storage.WALOp) {
	dir := t.TempDir()
	w, err := storage.OpenWAL(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(storage.WALRecord{Op: op, Txn: 1, Data: []byte{0}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := Open(Options{Dir: dir})
	if err == nil {
		d.Close()
		t.Fatalf("Open replayed a log with op %d", op)
	}
	if want := fmt.Sprintf("unknown WAL op %d", op); !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %v, want an unknown-op failure", err)
	}
}

// TestStatementLogsAsTransaction: a facade write outside any transaction
// runs as a one-statement transaction, so its records are bracketed by
// OpBegin and OpCommit under one transaction ID.
func TestStatementLogsAsTransaction(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	if _, err := d.Make("Document", map[string]value.Value{"Title": value.Str("a")}); err != nil {
		t.Fatal(err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	var ops []storage.WALOp
	txns := map[uint64]bool{}
	if err := storage.ReplayWAL(filepath.Join(dir, walFile), func(rec storage.WALRecord) error {
		ops = append(ops, rec.Op)
		txns[rec.Txn] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []storage.WALOp{storage.OpBegin, storage.OpPut, storage.OpCommit}
	if fmt.Sprint(ops) != fmt.Sprint(want) || len(txns) != 1 || txns[0] {
		t.Fatalf("logged ops %v under transactions %v, want %v under one nonzero ID", ops, txns, want)
	}
}
