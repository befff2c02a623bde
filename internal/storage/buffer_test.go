package storage

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBufferPoolFetchHitMiss(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 4)
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID
	p.Insert([]byte("x"))
	bp.Unpin(id, true)

	// First fetch after NewPage is a hit (still cached).
	if _, err := bp.Fetch(id); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(id, false)
	st := bp.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 hit", st)
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 2)
	var ids []PageID
	for i := 0; i < 3; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Insert([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
		bp.Unpin(p.ID, true)
	}
	// Pool capacity 2, three pages created: at least one eviction happened
	// and its dirty contents must be readable back.
	st := bp.Stats()
	if st.Evictions == 0 || st.Writes == 0 {
		t.Fatalf("stats = %+v, want evictions with writes", st)
	}
	for i, id := range ids {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch(%d): %v", id, err)
		}
		rec, err := p.Read(0)
		if err != nil || rec[0] != byte('a'+i) {
			t.Fatalf("page %d contents lost across eviction: %v", id, err)
		}
		bp.Unpin(id, false)
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 2)
	p1, _ := bp.NewPage()
	p2, _ := bp.NewPage()
	if _, err := bp.NewPage(); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("NewPage with all frames pinned: %v", err)
	}
	bp.Unpin(p1.ID, false)
	if _, err := bp.NewPage(); err != nil {
		t.Fatalf("NewPage after unpin: %v", err)
	}
	bp.Unpin(p2.ID, false)
}

// TestBufferPoolWaitsForUnpin: with every frame pinned, Fetch blocks
// until another goroutine unpins one instead of failing at once.
func TestBufferPoolWaitsForUnpin(t *testing.T) {
	bp := NewBufferPool(NewMemDevice(), 1)
	p1, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		bp.Unpin(p1.ID, true)
	}()
	start := time.Now()
	p3, err := bp.NewPage()
	if err != nil {
		t.Fatalf("NewPage while a pin is being released: %v", err)
	}
	if waited := time.Since(start); waited >= poolWaitBound {
		t.Fatalf("NewPage waited %v, the full bound", waited)
	}
	bp.Unpin(p3.ID, false)
	if _, err := bp.Fetch(p1.ID); err != nil {
		t.Fatalf("Fetch of the evicted page: %v", err)
	}
}

func TestBufferPoolUnpinUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unpin of unknown page did not panic")
		}
	}()
	bp := NewBufferPool(NewMemDevice(), 2)
	bp.Unpin(99, false)
}

func TestBufferPoolFlushAll(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 8)
	p, _ := bp.NewPage()
	id := p.ID
	p.Insert([]byte("persist me"))
	bp.Unpin(id, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Read through a second pool over the same device: data must be there.
	bp2 := NewBufferPool(dev, 8)
	p2, err := bp2.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p2.Read(0)
	if err != nil || string(rec) != "persist me" {
		t.Fatalf("after flush: %q, %v", rec, err)
	}
	bp2.Unpin(id, false)
}

func TestBufferPoolLRUOrder(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 2)
	a, _ := bp.NewPage()
	aID := a.ID
	bp.Unpin(aID, true)
	b, _ := bp.NewPage()
	bID := b.ID
	bp.Unpin(bID, true)
	// Touch a so b is the LRU victim.
	bp.Fetch(aID)
	bp.Unpin(aID, false)
	c, _ := bp.NewPage()
	bp.Unpin(c.ID, true)
	bp.ResetStats()
	// a should still be cached (hit); b should have been evicted (miss).
	bp.Fetch(aID)
	bp.Unpin(aID, false)
	st := bp.Stats()
	if st.Hits != 1 {
		t.Fatalf("a evicted out of LRU order: %+v", st)
	}
	bp.Fetch(bID)
	bp.Unpin(bID, false)
	st = bp.Stats()
	if st.Misses != 1 {
		t.Fatalf("b unexpectedly cached: %+v", st)
	}
}

func TestBufferPoolConcurrentFetch(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 4)
	var ids []PageID
	for i := 0; i < 8; i++ {
		p, _ := bp.NewPage()
		p.Insert([]byte{byte(i)})
		ids = append(ids, p.ID)
		bp.Unpin(p.ID, true)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(w+i)%len(ids)]
				p, err := bp.Fetch(id)
				if err != nil {
					t.Errorf("Fetch: %v", err)
					return
				}
				rec, err := p.Read(0)
				if err != nil {
					t.Errorf("Read: %v", err)
				} else if int(rec[0]) != int(id-ids[0]) {
					t.Errorf("page %d: wrong payload %d", id, rec[0])
				}
				bp.Unpin(id, false)
			}
		}(w)
	}
	wg.Wait()
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := t.TempDir() + "/dev.pages"
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := dev.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var p Page
	p.ID = id
	p.InitPage()
	p.Insert([]byte("on disk"))
	if err := dev.WritePage(&p); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and read back.
	dev2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	if dev2.NumPages() != 1 {
		t.Fatalf("NumPages = %d", dev2.NumPages())
	}
	var q Page
	if err := dev2.ReadPage(id, &q); err != nil {
		t.Fatal(err)
	}
	rec, err := q.Read(0)
	if err != nil || string(rec) != "on disk" {
		t.Fatalf("read back: %q %v", rec, err)
	}
	// Out-of-range reads fail.
	if err := dev2.ReadPage(99, &q); !errors.Is(err, ErrBadPage) {
		t.Fatalf("bad page read: %v", err)
	}
}

func TestMemDeviceBadPage(t *testing.T) {
	dev := NewMemDevice()
	var p Page
	if err := dev.ReadPage(1, &p); !errors.Is(err, ErrBadPage) {
		t.Fatalf("read unallocated: %v", err)
	}
	p.ID = 7
	if err := dev.WritePage(&p); !errors.Is(err, ErrBadPage) {
		t.Fatalf("write unallocated: %v", err)
	}
}

func TestBufferPoolShardScaling(t *testing.T) {
	dev := NewMemDevice()
	// Small pools must stay single-sharded so the exact-LRU replacement
	// tests (and the clustering bench's miss accounting) keep their global
	// ordering; large pools split up to 16 ways with >=16 frames each.
	cases := []struct{ capacity, shards int }{
		{1, 1}, {2, 1}, {4, 1}, {31, 1}, {32, 2}, {64, 4}, {256, 16}, {10000, 16},
	}
	for _, c := range cases {
		if got := NewBufferPool(dev, c.capacity).Shards(); got != c.shards {
			t.Errorf("capacity %d: shards = %d, want %d", c.capacity, got, c.shards)
		}
	}
	// Capacity is preserved across the split: filling a 64-page pool with
	// unpinned pages never exceeds 64 cached frames.
	bp := NewBufferPool(dev, 64)
	for i := 0; i < 100; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(p.ID, false)
	}
	if bp.Len() > 64 {
		t.Fatalf("pool over capacity: %d frames cached", bp.Len())
	}
}

func TestBufferPoolParallelStats(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 256)
	if bp.Shards() != 16 {
		t.Fatalf("expected 16 shards, got %d", bp.Shards())
	}
	var ids []PageID
	for i := 0; i < 64; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Insert([]byte{byte(i)})
		ids = append(ids, p.ID)
		bp.Unpin(p.ID, true)
	}
	bp.ResetStats()
	const workers, iters = 8, 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := ids[(w*7+i)%len(ids)]
				p, err := bp.Fetch(id)
				if err != nil {
					t.Errorf("Fetch: %v", err)
					return
				}
				if _, err := p.Read(0); err != nil {
					t.Errorf("Read: %v", err)
				}
				bp.Unpin(id, false)
				// Interleave stats snapshots with fetches: must be
				// race-clean and monotonic per counter.
				_ = bp.Stats()
			}
		}(w)
	}
	wg.Wait()
	st := bp.Stats()
	if st.Hits+st.Misses != workers*iters {
		t.Fatalf("hits+misses = %d, want %d (stats %+v)", st.Hits+st.Misses, workers*iters, st)
	}
}
