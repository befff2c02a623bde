package sim

import "testing"

// TestConcurrentHarness runs the concurrent simulation across a few seeds
// in-memory: N writer goroutines, per-commit model re-execution in commit
// order, quiescent full-state checks between rounds, and a final
// serialized replay of the commit-order trace.
func TestConcurrentHarness(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res := RunConcurrent(ConcurrentConfig{Seed: seed, Workers: 4, Ops: 120})
		if res.Failure != nil {
			t.Fatalf("seed %d: %s", seed, res.Failure.Report())
		}
		if res.Committed == 0 {
			t.Fatalf("seed %d: no transactions committed", seed)
		}
	}
}

// TestConcurrentHarnessDurable runs the concurrent simulation against an
// on-disk database, finishing with the harness's crash-recovery check:
// the WAL is abandoned without a clean close, reopened, and the replayed
// state compared against the model.
func TestConcurrentHarnessDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("durable concurrent soak skipped in -short")
	}
	res := RunConcurrent(ConcurrentConfig{Seed: 7, Workers: 4, Ops: 100, Durable: true, Dir: t.TempDir()})
	if res.Failure != nil {
		t.Fatal(res.Failure.Report())
	}
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
}

// TestConcurrentHarnessWithReaders adds snapshot reader goroutines to the
// writer mix: every reader iteration begins an MVCC snapshot, resolves
// the model recorded at the snapshot's commit boundary, and requires an
// exact match — the snapshot-consistency check (reads observe exactly the
// state at some commit boundary no newer than the snapshot seq, never a
// torn or uncommitted one).
func TestConcurrentHarnessWithReaders(t *testing.T) {
	for seed := int64(21); seed <= 22; seed++ {
		res := RunConcurrent(ConcurrentConfig{Seed: seed, Workers: 4, Readers: 2, Ops: 120})
		if res.Failure != nil {
			t.Fatalf("seed %d: %s", seed, res.Failure.Report())
		}
		if res.Committed == 0 {
			t.Fatalf("seed %d: no transactions committed", seed)
		}
		if res.SnapshotReads == 0 {
			t.Fatalf("seed %d: readers verified no snapshots", seed)
		}
	}
}

// TestConcurrentSingleWorkerMatchesSequentialSemantics: with one worker
// the harness still goes through the full admission/commit machinery;
// any divergence here indicts the checker rather than a race.
func TestConcurrentSingleWorker(t *testing.T) {
	res := RunConcurrent(ConcurrentConfig{Seed: 11, Workers: 1, Ops: 200})
	if res.Failure != nil {
		t.Fatal(res.Failure.Report())
	}
}
