package sim

import (
	"errors"
	"testing"

	"repro/internal/db"
	"repro/internal/faultfs"
	"repro/internal/value"
)

// TestSimDurableCrashRecovery runs the workload against an on-disk
// database with crash ops: each crash abandons the files mid-flight and
// reopens through WAL replay; the recovered state must equal the model
// at the last committed transaction (durability) with no aborted-txn
// effects (atomicity). Every run also ends with a final crash/recovery
// round.
func TestSimDurableCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("durable sims hit the disk")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Seed: seed, Ops: 250, Durable: true, Dir: t.TempDir(),
				Checkpoint: true, Crash: true, ShrinkBudget: 60,
			}
			if f := Run(cfg); f != nil {
				t.Fatal(f.Report())
			}
		})
	}
}

// TestSimDurableEvolutionCrash combines schema evolution with crashes:
// catalog changes (including deferred-evolution op logs and the change
// counter) are checkpointed by the db wrappers, so a crash after an
// evolution op must not lose it.
func TestSimDurableEvolutionCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("durable sims hit the disk")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Seed: seed, Ops: 250, Durable: true, Dir: t.TempDir(),
				Evolution: true, Checkpoint: true, Crash: true, ShrinkBudget: 60,
			}
			if f := Run(cfg); f != nil {
				t.Fatal(f.Report())
			}
		})
	}
}

// TestDBCheckpointSyncFaultRetry writes a real database's snapshots
// through fault-injecting files: an injected fsync failure must surface
// from Checkpoint as an error (not silently succeed), a retry must go
// through, and a crash plus reopen must recover everything the
// successful checkpoint and the WAL captured.
func TestDBCheckpointSyncFaultRetry(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(42)
	d, err := db.Open(db.Options{Dir: dir, SnapshotFile: fs.Create, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := defineSchema(d); err != nil {
		t.Fatal(err)
	}
	o, err := d.Make(classLeaf, map[string]value.Value{"Tag": value.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	fs.Inject(faultfs.Fault{Kind: faultfs.SyncErr, At: fs.Stats().Syncs + 1})
	if err := d.Checkpoint(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("checkpoint with failing fsync: got %v, want ErrInjected", err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	reopened, err := db.Open(db.Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatalf("recovery after faulty checkpoint: %v", err)
	}
	defer reopened.Close()
	got, err := reopened.Get(o.UID())
	if err != nil {
		t.Fatalf("object lost across fault + crash: %v", err)
	}
	if tag, _ := got.Get("Tag").AsInt(); tag != 7 {
		t.Fatalf("Tag = %d, want 7", tag)
	}
}
