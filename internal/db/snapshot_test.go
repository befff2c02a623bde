package db

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/storage"
	"repro/internal/uid"
	"repro/internal/value"
)

// TestReopenNeverReissuesDeletedUID: the newest object is deleted, so no
// live object holds the highest UID issued. After a clean close and
// after a crash, the reopened database must still issue a fresh UID, or
// a dangling weak reference to the deleted object would resolve to a
// stranger.
func TestReopenNeverReissuesDeletedUID(t *testing.T) {
	for name, crash := range map[string]bool{"close": false, "crash": true} {
		t.Run(name, func(t *testing.T) { reopenNeverReissuesDeletedUID(t, crash) })
	}
}

func reopenNeverReissuesDeletedUID(t *testing.T, crash bool) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	if _, err := d.Make("Document", nil); err != nil {
		t.Fatal(err)
	}
	newest, err := d.Make("Document", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(newest.UID()); err != nil {
		t.Fatal(err)
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
		t.Fatal(err)
	}
	o, err := r.Make("Document", nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.UID().Serial <= newest.UID().Serial {
		t.Fatalf("reopened database issued %v, not above the deleted %v", o.UID(), newest.UID())
	}
	r.Close()
}

// TestOpenLocksDirectory: one open DB per directory. A second Open fails
// with ErrLocked while the first is open, and succeeds once it is
// abandoned or closed.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open after Abandon: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	r.Close()
}

// makeDocs creates n documents titled title and returns their UIDs.
func makeDocs(t *testing.T, d *DB, n int, title string) []uid.UID {
	t.Helper()
	ids := make([]uid.UID, n)
	for i := range ids {
		o, err := d.Make("Document", map[string]value.Value{"Title": value.Str(title)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = o.UID()
	}
	return ids
}

// requireTitles reopens dir after a crash and requires every document
// in want to hold its title.
func requireTitles(t *testing.T, dir string, want map[uid.UID]string) {
	t.Helper()
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	for id, title := range want {
		o, err := r.Get(id)
		if err != nil {
			t.Fatalf("acknowledged %v lost: %v", id, err)
		}
		if s, _ := o.Get("Title").AsString(); s != title {
			t.Fatalf("%v title = %q, want the acknowledged %q", id, s, title)
		}
	}
}

// TestCrashMidCheckpointKeepsCommits: a checkpoint whose snapshot fsync
// fails has already moved the log to its predecessor. Commits go on
// into the new log; a crash then must recover every acknowledged commit
// from the previous snapshot and both logs. A later checkpoint, which
// must not rotate onto the predecessor it still needs, completes and
// removes it, and a crash after more commits loses nothing either.
func TestCrashMidCheckpointKeepsCommits(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(1)
	d, err := Open(Options{Dir: dir, SyncWAL: true, SnapshotFile: fs.Create})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	want := map[uid.UID]string{}
	note := func(ids []uid.UID, title string) {
		for _, id := range ids {
			want[id] = title
		}
	}
	note(makeDocs(t, d, 10, "before"), "before")
	fs.Inject(faultfs.Fault{Kind: faultfs.SyncErr, At: fs.Stats().Syncs + 1})
	if err := d.Checkpoint(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("checkpoint with failing snapshot fsync: %v, want ErrInjected", err)
	}
	if _, err := os.Stat(filepath.Join(dir, prevWALFile)); err != nil {
		t.Fatalf("failed checkpoint left no predecessor log: %v", err)
	}
	note(makeDocs(t, d, 10, "after-failure"), "after-failure")
	for id := range want {
		if err := d.Set(id, "Title", value.Str("rewritten")); err != nil {
			t.Fatal(err)
		}
		want[id] = "rewritten"
		break
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	requireTitles(t, dir, want)

	d, err = Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	note(makeDocs(t, d, 10, "before-retry"), "before-retry")
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, prevWALFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("completed checkpoint kept the predecessor log: %v", err)
	}
	note(makeDocs(t, d, 10, "after-retry"), "after-retry")
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	requireTitles(t, dir, want)
}

// TestCrashAfterSnapshotRenameKeepsCommits: a crash after the snapshot
// is in place but before the predecessor log is deleted leaves a log
// whose every record the snapshot already holds. Replaying it over the
// snapshot, and the newer log after it, must change nothing.
func TestCrashAfterSnapshotRenameKeepsCommits(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	want := map[uid.UID]string{}
	ids := makeDocs(t, d, 10, "first")
	for _, id := range ids {
		want[id] = "first"
	}
	// Rewrite and delete in the log the snapshot is about to absorb.
	if err := d.Set(ids[0], "Title", value.Str("second")); err != nil {
		t.Fatal(err)
	}
	want[ids[0]] = "second"
	if _, err := d.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	delete(want, ids[1])
	log, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, prevWALFile), log, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Set(ids[2], "Title", value.Str("third")); err != nil {
		t.Fatal(err)
	}
	want[ids[2]] = "third"
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	requireTitles(t, dir, want)
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Engine().Exists(ids[1]) {
		t.Fatal("a deletion the snapshot holds came back from the predecessor log")
	}
}

// TestCommitCompletesWhileSnapshotStreams: the snapshot is written with
// the fence released, so a SyncWAL commit completes while a checkpoint
// is held mid-snapshot, and it survives a crash once the checkpoint ends.
func TestCommitCompletesWhileSnapshotStreams(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(1)
	d, err := Open(Options{Dir: dir, SyncWAL: true, SnapshotFile: fs.Create})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	ids := makeDocs(t, d, 10, "before")
	fs.Inject(faultfs.Fault{Kind: faultfs.Stall, At: fs.Stats().Writes + 1})
	done := make(chan error, 1)
	go func() { done <- d.Checkpoint() }()
	select {
	case <-fs.Stalled():
	case err := <-done:
		t.Fatalf("checkpoint ended before its snapshot write stalled: %v", err)
	}
	committed := make(chan error, 1)
	go func() { committed <- d.Set(ids[0], "Title", value.Str("during")) }()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		fs.Resume()
		t.Fatal("a commit waited for a checkpoint's snapshot write")
	}
	fs.Resume()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	requireTitles(t, dir, map[uid.UID]string{ids[0]: "during", ids[1]: "before"})
}

// TestTornTailCutBeforeAppending: a crash mid-append leaves a torn frame
// at the log's tail, which recovery tolerates. Recovery must also cut
// it off: a commit appended after the garbage would otherwise sit behind
// damage that the next replay reads as mid-log corruption.
func TestTornTailCutBeforeAppending(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	ids := makeDocs(t, d, 2, "before")
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{40, 0, 0, 0, 1, 2, 3, 4, 5}) // a header and a few payload bytes
	f.Close()
	d, err = Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatalf("reopen over a torn tail: %v", err)
	}
	if err := d.Set(ids[0], "Title", value.Str("after")); err != nil {
		t.Fatal(err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	requireTitles(t, dir, map[uid.UID]string{ids[0]: "after", ids[1]: "before"})
	if err := storage.ReplayWAL(filepath.Join(dir, walFile), func(storage.WALRecord) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestReopenAfterDropClassSkipsItsInstances: DropClass deletes every
// instance in the log and saves a catalog without the class, but writes
// no snapshot, so the last snapshot still holds the instances. A crash
// then leaves a snapshot older than the catalog; recovery must skip
// them, and the logged deletion then finds nothing to delete.
func TestReopenAfterDropClassSkipsItsInstances(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defineDocSchema(t, d)
	para, err := d.Make("Paragraph", map[string]value.Value{"Text": value.Str("kept")})
	if err != nil {
		t.Fatal(err)
	}
	docs := makeDocs(t, d, 3, "dropped")
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DropClass("Document"); err != nil {
		t.Fatal(err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after DropClass: %v", err)
	}
	defer r.Close()
	if r.Catalog().Has("Document") {
		t.Fatal("dropped class came back")
	}
	for _, id := range docs {
		if r.Engine().Exists(id) {
			t.Fatalf("instance %v of the dropped class came back", id)
		}
	}
	if !r.Engine().Exists(para.UID()) {
		t.Fatal("an object of another class was lost")
	}
}
