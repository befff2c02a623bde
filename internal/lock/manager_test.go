package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/uid"
)

func g(n string) Granule { return ClassGranule(n) }

func TestLockGrantAndRelease(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, g("C"), S); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(1, g("C"), S) {
		t.Fatal("Holds = false")
	}
	// Compatible mode from another tx is granted immediately.
	if ok := m.TryLock(2, g("C"), S); !ok {
		t.Fatal("S-S TryLock failed")
	}
	// Incompatible mode from a third tx is not.
	if ok := m.TryLock(3, g("C"), X); ok {
		t.Fatal("X granted alongside S")
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	if ok := m.TryLock(3, g("C"), X); !ok {
		t.Fatal("X not granted after release")
	}
}

func TestLockSelfCompatible(t *testing.T) {
	// A transaction never conflicts with itself: conversions accumulate.
	m := NewManager()
	if err := m.Lock(1, g("C"), S); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, g("C"), X); err != nil {
		t.Fatal(err)
	}
	modes := m.HeldModes(1, g("C"))
	if len(modes) != 2 {
		t.Fatalf("held modes = %v", modes)
	}
	// Re-request of a held mode is a no-op.
	if err := m.Lock(1, g("C"), S); err != nil {
		t.Fatal(err)
	}
	if len(m.HeldModes(1, g("C"))) != 2 {
		t.Fatal("duplicate mode recorded")
	}
}

func TestLockBlocksUntilRelease(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, g("C"), X); err != nil {
		t.Fatal(err)
	}
	var acquired atomic.Bool
	done := make(chan error, 1)
	go func() {
		err := m.Lock(2, g("C"), S)
		acquired.Store(true)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if acquired.Load() {
		t.Fatal("S granted while X held")
	}
	m.ReleaseAll(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, g("A"), X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, g("B"), X); err != nil {
		t.Fatal(err)
	}
	// Tx1 waits for B (held by 2).
	errs := make(chan error, 1)
	go func() { errs <- m.Lock(1, g("B"), X) }()
	time.Sleep(20 * time.Millisecond)
	// Tx2 requests A (held by 1): closes the cycle, must abort.
	err := m.Lock(2, g("A"), X)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("deadlock not detected: %v", err)
	}
	// Victim releases; tx1 proceeds.
	m.ReleaseAll(2)
	select {
	case err := <-errs:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tx1 stuck after victim released")
	}
	m.ReleaseAll(1)
}

func TestUnlockSpecificGranule(t *testing.T) {
	m := NewManager()
	m.Lock(1, g("A"), S)
	m.Lock(1, g("B"), S)
	if err := m.Unlock(1, g("A")); err != nil {
		t.Fatal(err)
	}
	if m.Holds(1, g("A"), S) || !m.Holds(1, g("B"), S) {
		t.Fatal("Unlock removed wrong granule")
	}
	if err := m.Unlock(1, g("A")); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("double unlock: %v", err)
	}
	if m.LockCount(1) != 1 {
		t.Fatalf("LockCount = %d", m.LockCount(1))
	}
}

func TestInstanceGranules(t *testing.T) {
	m := NewManager()
	a := InstanceGranule(uid.UID{Class: 1, Serial: 1})
	b := InstanceGranule(uid.UID{Class: 1, Serial: 2})
	if err := m.Lock(1, a, X); err != nil {
		t.Fatal(err)
	}
	// Different instance: no conflict.
	if ok := m.TryLock(2, b, X); !ok {
		t.Fatal("X on different instances conflicted")
	}
	// Same instance: conflict.
	if ok := m.TryLock(2, a, S); ok {
		t.Fatal("S granted on X-locked instance")
	}
}

func TestConcurrentStress(t *testing.T) {
	// Many goroutines lock/unlock overlapping granules; no lost wakeups,
	// no panics, all terminate.
	m := NewManager()
	granules := []Granule{g("A"), g("B"), g("C")}
	var wg sync.WaitGroup
	var deadlocks atomic.Int64
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := TxID(w + 1)
			for i := 0; i < 100; i++ {
				gr := granules[(w+i)%len(granules)]
				mode := []Mode{S, X, IS, IX}[i%4]
				if err := m.Lock(tx, gr, mode); err != nil {
					if errors.Is(err, ErrDeadlock) {
						deadlocks.Add(1)
						m.ReleaseAll(tx)
						continue
					}
					t.Errorf("lock: %v", err)
					return
				}
				m.ReleaseAll(tx)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress test hung")
	}
}

func TestCompositeReadersAndWritersCoexistOnExclusiveClass(t *testing.T) {
	// The §7 headline property: transactions reading and updating
	// *different* composite objects of the same hierarchy coexist.
	m := NewManager()
	// Reader of composite object 1.
	if err := m.Lock(1, g("Vehicle"), IS); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, InstanceGranule(uid.UID{Class: 5, Serial: 1}), S); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, g("AutoBody"), ISO); err != nil {
		t.Fatal(err)
	}
	// Writer of composite object 2: all grants must succeed immediately.
	for _, step := range []struct {
		gr   Granule
		mode Mode
	}{
		{g("Vehicle"), IX},
		{InstanceGranule(uid.UID{Class: 5, Serial: 2}), X},
		{g("AutoBody"), IXO},
	} {
		if ok := m.TryLock(2, step.gr, step.mode); !ok {
			t.Fatalf("writer blocked on %v %v", step.gr, step.mode)
		}
	}
	// A third transaction updating composite object 1 blocks at the root
	// instance (X vs S), not at the class level.
	if ok := m.TryLock(3, g("Vehicle"), IX); !ok {
		t.Fatal("IX on class blocked")
	}
	if ok := m.TryLock(3, InstanceGranule(uid.UID{Class: 5, Serial: 1}), X); ok {
		t.Fatal("X on S-locked root granted")
	}
}

// TestVictimRetryYieldsToWinner is the retry livelock: T1 holds X on an
// object and parks for IXOS on a class T2 holds; T2 then asks for the
// object and is chosen as the victim. T2 retries under its own TxID
// right after its abort. Grants do not queue behind waits, so without
// the yield rule the retry re-took the class before T1 woke and lost the
// same cycle again, until a bounded retrier gave up. The retry must wait
// behind T1 and then succeed.
func TestVictimRetryYieldsToWinner(t *testing.T) {
	for round := 0; round < 50; round++ {
		m := NewManager()
		obj := InstanceGranule(uid.UID{Class: 1, Serial: 1})
		if err := m.Lock(1, obj, X); err != nil {
			t.Fatal(err)
		}
		if err := m.Lock(2, g("C"), IXOS); err != nil {
			t.Fatal(err)
		}
		t1 := make(chan error, 1)
		go func() {
			err := m.Lock(1, g("C"), IXOS)
			m.ReleaseAll(1)
			t1 <- err
		}()
		for parkedOn(m, g("C")) == 0 {
			time.Sleep(time.Millisecond)
		}
		if err := m.Lock(2, obj, X); !errors.Is(err, ErrDeadlock) {
			t.Fatalf("round %d: T2 = %v, want ErrDeadlock", round, err)
		}
		m.ReleaseAll(2)
		// The retry, under the same identity, before T1 has run.
		if err := m.Lock(2, g("C"), IXOS); err != nil {
			t.Fatalf("round %d: retry on the class: %v", round, err)
		}
		if err := m.Lock(2, obj, X); err != nil {
			t.Fatalf("round %d: retry on the object: %v", round, err)
		}
		if err := <-t1; err != nil {
			t.Fatalf("round %d: T1: %v", round, err)
		}
		m.ReleaseAll(2)
	}
}

// parkedOn counts the requests parked on gr.
func parkedOn(m *Manager, gr Granule) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.granules[gr.String()]; st != nil {
		return st.waiters
	}
	return 0
}
