package storage

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/uid"
)

func testWAL(t *testing.T) *WAL {
	t.Helper()
	w, err := OpenWAL(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func TestGroupCommitNilSafe(t *testing.T) {
	var g *GroupCommitter
	if err := g.Sync(); err != nil {
		t.Fatalf("nil committer: %v", err)
	}
	g = NewGroupCommitter(nil, 0, 0)
	if err := g.Sync(); err != nil {
		t.Fatalf("nil WAL: %v", err)
	}
}

func TestGroupCommitSingleCommitterNoDelay(t *testing.T) {
	w := testWAL(t)
	r := obs.NewRegistry()
	w.SetObservability(r)
	g := NewGroupCommitter(w, 0, 0)
	g.SetObservability(r)
	for i := 0; i < 5; i++ {
		if err := w.Append(WALRecord{Op: OpPut, UID: uid.UID{Class: 1, Serial: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
		if err := g.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// A lone committer gets exactly one fsync per Sync: no batching is
	// possible, and no artificial wait should have been taken.
	if got := r.Counter("wal_fsync_total").Load(); got != 5 {
		t.Fatalf("fsyncs = %d, want 5", got)
	}
	if got := r.Counter("storage_wal_group_commit_syncs_total").Load(); got != 5 {
		t.Fatalf("group syncs = %d, want 5", got)
	}
}

// TestGroupCommitBatchesDeterministic proves the amortization claim
// without depending on scheduler timing: the sync latch is held while N
// committers append and join the current batch, so when the latch is
// released the first of them leads a full batch — exactly one fsync
// covers all N.
func TestGroupCommitBatchesDeterministic(t *testing.T) {
	w := testWAL(t)
	r := obs.NewRegistry()
	w.SetObservability(r)
	g := NewGroupCommitter(w, DefaultCommitWait, 64)
	g.SetObservability(r)

	const committers = 8
	g.syncMu.Lock()
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := WALRecord{Op: OpPut, UID: uid.UID{Class: 1, Serial: uint64(c)}}
			if err := w.Append(rec); err != nil {
				errs[c] = err
				return
			}
			errs[c] = g.Sync()
		}(c)
	}
	// Wait until all committers have joined the batch, then let it run.
	for {
		g.mu.Lock()
		n := 0
		if g.cur != nil {
			n = g.cur.n
		}
		g.mu.Unlock()
		if n == committers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	g.syncMu.Unlock()
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", c, err)
		}
	}
	if fsyncs := r.Counter("wal_fsync_total").Load(); fsyncs != 1 {
		t.Fatalf("fsyncs = %d, want exactly 1 for a pre-filled batch", fsyncs)
	}
	if waiters := r.Counter("storage_wal_group_commit_waiters_total").Load(); waiters != committers {
		t.Fatalf("waiters = %d, want %d", waiters, committers)
	}
	n := 0
	if err := ReplayWAL(w.path, func(WALRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != committers {
		t.Fatalf("replayed %d records, want %d", n, committers)
	}
}

// TestGroupCommitConcurrentCommitters stress-tests the coordinator:
// every committer's Sync must cover its own prior append (a nil error
// only after its records are durable) and the log must replay intact.
// Fsync counts here are scheduler-dependent, so amortization is asserted
// by TestGroupCommitBatchesDeterministic instead.
func TestGroupCommitConcurrentCommitters(t *testing.T) {
	w := testWAL(t)
	r := obs.NewRegistry()
	w.SetObservability(r)
	g := NewGroupCommitter(w, 0, 0)
	g.SetObservability(r)

	const committers = 16
	const rounds = 25
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rec := WALRecord{Op: OpPut, UID: uid.UID{Class: 1, Serial: uint64(c*rounds + i)}}
				if err := w.Append(rec); err != nil {
					errs[c] = err
					return
				}
				if err := g.Sync(); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", c, err)
		}
	}
	total := uint64(committers * rounds)
	if waiters := r.Counter("storage_wal_group_commit_waiters_total").Load(); waiters != total {
		t.Fatalf("waiters = %d, want %d", waiters, total)
	}
	// Every record must be durable and intact.
	n := 0
	if err := ReplayWAL(w.path, func(WALRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if uint64(n) != total {
		t.Fatalf("replayed %d records, want %d", n, total)
	}
}

func TestGroupCommitBatchCap(t *testing.T) {
	w := testWAL(t)
	g := NewGroupCommitter(w, DefaultCommitWait, 2)
	if g.maxBatch != 2 {
		t.Fatalf("maxBatch = %d, want 2", g.maxBatch)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Sync(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
