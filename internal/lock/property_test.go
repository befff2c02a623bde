package lock

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// Properties of the claims-derived compatibility relation.

func randMode(r *rand.Rand) Mode { return Modes[r.Intn(len(Modes))] }

func TestPropertyCompatSymmetry(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := Modes[int(a)%len(Modes)], Modes[int(b)%len(Modes)]
		return Compatible(x, y) == Compatible(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIntentionWeakening(t *testing.T) {
	// IS is the weakest mode: anything compatible with a mode m is also
	// compatible with IS whenever m grants at least reads everywhere IS
	// claims. Concretely: Compatible(m, X) == false for all m except
	// none, and Compatible(m, IS) >= Compatible(m, S) (S claims strictly
	// more than IS).
	for _, m := range Modes {
		if Compatible(m, S) && !Compatible(m, IS) {
			t.Errorf("%s compatible with S but not IS", m)
		}
		if Compatible(m, X) && !Compatible(m, S) {
			t.Errorf("%s compatible with X but not S", m)
		}
		if Compatible(m, IX) && !Compatible(m, IS) {
			t.Errorf("%s compatible with IX but not IS", m)
		}
		if Compatible(m, IXO) && !Compatible(m, ISO) {
			t.Errorf("%s compatible with IXO but not ISO", m)
		}
		if Compatible(m, IXOS) && !Compatible(m, ISOS) {
			t.Errorf("%s compatible with IXOS but not ISOS", m)
		}
		if Compatible(m, SIX) && !Compatible(m, IX) {
			t.Errorf("%s compatible with SIX but not IX", m)
		}
		if Compatible(m, SIXO) && !Compatible(m, IXO) {
			t.Errorf("%s compatible with SIXO but not IXO", m)
		}
		if Compatible(m, SIXOS) && !Compatible(m, IXOS) {
			t.Errorf("%s compatible with SIXOS but not IXOS", m)
		}
	}
}

// TestPropertyManagerNeverGrantsConflicts hammers the manager with random
// lock/unlock traffic and verifies, after every grant, that no two
// transactions hold incompatible modes on the same granule.
func TestPropertyManagerNeverGrantsConflicts(t *testing.T) {
	m := NewManager()
	granules := []Granule{g("A"), g("B"), g("C"), g("D")}
	var mu sync.Mutex
	held := map[string]map[TxID][]Mode{} // shadow of granted locks

	checkInvariant := func() {
		mu.Lock()
		defer mu.Unlock()
		for key, byTx := range held {
			var all []struct {
				tx TxID
				m  Mode
			}
			for tx, modes := range byTx {
				for _, mo := range modes {
					all = append(all, struct {
						tx TxID
						m  Mode
					}{tx, mo})
				}
			}
			for i := 0; i < len(all); i++ {
				for j := i + 1; j < len(all); j++ {
					if all[i].tx != all[j].tx && !Compatible(all[i].m, all[j].m) {
						t.Errorf("granule %s: tx %d holds %s alongside tx %d holding %s",
							key, all[i].tx, all[i].m, all[j].tx, all[j].m)
					}
				}
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			tx := TxID(w + 1)
			// The shadow must never claim more than the manager grants:
			// drop tx from it BEFORE releasing, or another worker can be
			// granted a conflicting mode while the shadow still lists tx.
			release := func() {
				mu.Lock()
				for _, byTx := range held {
					delete(byTx, tx)
				}
				mu.Unlock()
				m.ReleaseAll(tx)
			}
			for i := 0; i < 200; i++ {
				gr := granules[r.Intn(len(granules))]
				mode := randMode(r)
				if !m.TryLock(tx, gr, mode) {
					continue
				}
				mu.Lock()
				if held[gr.String()] == nil {
					held[gr.String()] = map[TxID][]Mode{}
				}
				held[gr.String()][tx] = append(held[gr.String()][tx], mode)
				mu.Unlock()
				checkInvariant()
				if r.Intn(3) == 0 {
					release()
				}
			}
			release()
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("property test hung")
	}
}

// TestPropertyNoLostWakeups: waiters always eventually get the lock after
// conflicting holders release.
func TestPropertyNoLostWakeups(t *testing.T) {
	m := NewManager()
	const waiters = 12
	if err := m.Lock(999, g("G"), X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			tx := TxID(i + 1)
			err := m.Lock(tx, g("G"), S)
			if err == nil {
				m.ReleaseAll(tx)
			}
			errs <- err
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(999)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter %d never woke", i)
		}
	}
}
