package txn

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/uid"
)

// failingBoundary simulates a WAL group-commit failure (device error on
// the commit or abort record) at the transaction boundary.
type failingBoundary struct {
	failCommit bool
	failAbort  bool
}

var errBoundary = errors.New("injected boundary failure")

func (f *failingBoundary) OnCommit(_ core.TxnID, publish func()) error {
	publish()
	if f.failCommit {
		return errBoundary
	}
	return nil
}

func (f *failingBoundary) OnAbort(core.TxnID) error {
	if f.failAbort {
		return errBoundary
	}
	return nil
}

// TestCommitBoundaryFailureReleasesLocks: when the commit record cannot
// be written, Commit must report the failure AND still release every
// lock — a transaction that died at its boundary must never leave an X
// lock behind to wedge later writers.
func TestCommitBoundaryFailureReleasesLocks(t *testing.T) {
	m := abortPropManager(t)
	b := &failingBoundary{failCommit: true}
	m.SetBoundary(b)
	e := m.Engine()
	r, err := e.New("IX", nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := e.New("Leaf", nil)
	if err != nil {
		t.Fatal(err)
	}

	t1 := m.Begin()
	if err := t1.Attach(r.UID(), "Parts", l.UID()); err != nil {
		t.Fatal(err)
	}
	if n := m.Locks().LockCount(t1.ID()); n == 0 {
		t.Fatal("attach held no locks; test is vacuous")
	}
	if err := t1.Commit(); !errors.Is(err, errBoundary) {
		t.Fatalf("Commit = %v, want the injected boundary failure", err)
	}
	if n := m.Locks().LockCount(t1.ID()); n != 0 {
		t.Fatalf("failed commit leaked %d locks", n)
	}

	// A fresh transaction can X-lock the same granules immediately.
	b.failCommit = false
	t2 := m.Begin()
	if err := t2.Detach(r.UID(), "Parts", l.UID()); err != nil {
		t.Fatalf("fresh txn blocked on granules of the failed txn: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestVictimAbortBoundaryFailureReleasesLocks: a deadlock victim whose
// abort record also fails to persist must still roll back its changes
// and release all locks, so the surviving transaction can proceed.
func TestVictimAbortBoundaryFailureReleasesLocks(t *testing.T) {
	m := abortPropManager(t)
	b := &failingBoundary{failAbort: true}
	m.SetBoundary(b)
	e := m.Engine()
	mk := func(class string) uid.UID {
		o, err := e.New(class, nil)
		if err != nil {
			t.Fatal(err)
		}
		return o.UID()
	}
	r1, r2 := mk("IX"), mk("IX")
	l1, l2, l3, l4 := mk("Leaf"), mk("Leaf"), mk("Leaf"), mk("Leaf")
	before := dumpEngine(t, e)

	t1 := m.Begin()
	t2 := m.Begin() // younger: the victim
	if err := t1.Attach(r1, "Parts", l1); err != nil {
		t.Fatal(err)
	}
	if err := t2.Attach(r2, "Parts", l2); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- t1.Attach(r2, "Parts", l3) }()
	if err := t2.Attach(r1, "Parts", l4); !errors.Is(err, lock.ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock for the victim, got %v", err)
	}
	if err := t2.Abort(); !errors.Is(err, errBoundary) {
		t.Fatalf("victim Abort = %v, want the injected boundary failure", err)
	}
	if n := m.Locks().LockCount(t2.ID()); n != 0 {
		t.Fatalf("victim with failed abort record leaked %d locks", n)
	}
	if err := <-done; err != nil {
		t.Fatalf("survivor blocked by the victim's leaked locks: %v", err)
	}
	// Roll the survivor back too (its abort record also fails) and check
	// the engine state is untouched — the undo ran despite the boundary
	// failure.
	if err := t1.Abort(); !errors.Is(err, errBoundary) {
		t.Fatalf("survivor Abort = %v, want the injected boundary failure", err)
	}
	if n := m.Locks().LockCount(t1.ID()); n != 0 {
		t.Fatalf("survivor leaked %d locks", n)
	}
	after := dumpEngine(t, e)
	if d := diffDumps(before, after); d != "" {
		t.Fatalf("state diverged after failed-boundary aborts: %s", d)
	}
}
