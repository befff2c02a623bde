package lock

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// slowWriter takes delay per write and closes started at its first.
type slowWriter struct {
	delay   time.Duration
	once    sync.Once
	started chan struct{}
}

func (w *slowWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	time.Sleep(w.delay)
	return len(p), nil
}

// TestDeadlockDumpDoesNotStallOtherRequests: a deadlock victim's dump of
// the ring is written after the manager's mutex is released, so a
// request on an unrelated granule does not wait behind a slow dump
// writer.
func TestDeadlockDumpDoesNotStallOtherRequests(t *testing.T) {
	const delay = 300 * time.Millisecond
	m := NewManager()
	reg := obs.NewRegistry()
	m.SetObservability(reg)
	w := &slowWriter{delay: delay, started: make(chan struct{})}
	reg.Recorder().SetWriter(w)

	if err := m.Lock(1, g("A"), X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, g("B"), X); err != nil {
		t.Fatal(err)
	}
	survivor := make(chan error, 1)
	go func() { survivor <- m.Lock(1, g("B"), X) }()
	for reg.Counter("lock_wait_total").Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Tx 2, the younger, closes the cycle and is its victim: its request
	// fails and dumps the ring.
	victim := make(chan error, 1)
	go func() { victim <- m.Lock(2, g("A"), X) }()
	<-w.started

	start := time.Now()
	if err := m.Lock(3, g("C"), X); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= delay/2 {
		t.Errorf("a request on an unrelated granule took %v behind a deadlock dump", took)
	}

	if err := <-victim; !errors.Is(err, ErrDeadlock) {
		t.Fatalf("victim: %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-survivor; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(3)
}

// TestSlowWaitDumpDoesNotStallOtherRequests: the same for the dump a
// lock wait over the slow threshold triggers at its grant.
func TestSlowWaitDumpDoesNotStallOtherRequests(t *testing.T) {
	const delay = 300 * time.Millisecond
	m := NewManager()
	reg := obs.NewRegistry()
	m.SetObservability(reg)
	w := &slowWriter{delay: delay, started: make(chan struct{})}
	reg.Recorder().SetWriter(w)
	reg.Recorder().SetThreshold(time.Nanosecond)

	if err := m.Lock(1, g("A"), X); err != nil {
		t.Fatal(err)
	}
	waiter := make(chan error, 1)
	go func() { waiter <- m.Lock(2, g("A"), X) }()
	for reg.Counter("lock_wait_total").Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	m.ReleaseAll(1) // grants tx 2's wait, which breaches and dumps
	<-w.started

	start := time.Now()
	if err := m.Lock(3, g("C"), X); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= delay/2 {
		t.Errorf("a request on an unrelated granule took %v behind a slow-wait dump", took)
	}
	if err := <-waiter; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	m.ReleaseAll(3)
}
