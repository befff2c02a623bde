package storage

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Stats counts buffer-pool activity. Reads/Writes are device I/Os; Hits
// and Misses are Fetch outcomes. The clustering and traversal benches use
// these counters as their cost metric, standing in for the paper's disk
// accesses.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Reads     uint64
	Writes    uint64
	Evictions uint64
}

// ErrPoolFull is returned when every frame stays pinned for
// poolWaitBound, so none can be evicted.
var ErrPoolFull = errors.New("storage: buffer pool full (all pages pinned)")

// poolWaitBound is how long Fetch and NewPage wait for Unpin to release a
// frame when every frame of their shard is pinned.
const poolWaitBound = 200 * time.Millisecond

type frame struct {
	page  Page
	pins  int
	dirty bool
	elem  *list.Element // position in the LRU list when unpinned; nil when pinned
}

// shard is one independently locked slice of the pool: its own frame
// table, LRU list, and capacity share. Pages map to shards by PageID, so
// two readers faulting on different pages contend only when the pages
// hash to the same shard.
type shard struct {
	mu       sync.Mutex
	freed    sync.Cond // broadcast by Unpin when a frame drops to zero pins
	waiters  int       // goroutines blocked on freed
	capacity int
	frames   map[PageID]*frame
	lru      *list.List // of PageID, front = most recently unpinned
}

// Shard sizing: the shard count is the largest power of two (up to
// maxPoolShards) that still leaves every shard at least minShardFrames
// frames. Small pools therefore keep a single shard — and with it the
// exact global LRU order the replacement tests and the clustering bench
// rely on — while the default 256-page pool splits 16 ways.
const (
	maxPoolShards  = 16
	minShardFrames = 16
)

// BufferPool caches pages from a Device with LRU replacement of unpinned
// frames. It is safe for concurrent use; pages returned by Fetch/NewPage
// are pinned and must be released with Unpin. Locking is striped by
// PageID so concurrent fetches of different pages proceed in parallel
// (eviction is per shard: each shard runs LRU over its own capacity
// share). Concurrent mutators of the same page must coordinate externally
// (the object store holds its own latch).
type BufferPool struct {
	dev    Device
	shards []*shard
	mask   uint32
	o      poolObs

	// prof is the ambient per-operation cost sink (AttachProf): fetches
	// and evictions are attributed to it while attached. Exact when one
	// profiled operation runs at a time; see obs.ProfCtx.
	prof atomic.Pointer[obs.ProfCtx]
}

// AttachProf attributes pool activity to p until detached (nil).
func (bp *BufferPool) AttachProf(p *obs.ProfCtx) { bp.prof.Store(p) }

// NewBufferPool returns a pool holding at most capacity pages.
func NewBufferPool(dev Device, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n < maxPoolShards && capacity/(n*2) >= minShardFrames {
		n *= 2
	}
	bp := &BufferPool{dev: dev, mask: uint32(n - 1)}
	bp.SetObservability(obs.NewRegistry())
	per, rem := capacity/n, capacity%n
	for i := 0; i < n; i++ {
		c := per
		if i < rem {
			c++
		}
		s := &shard{
			capacity: c,
			frames:   make(map[PageID]*frame),
			lru:      list.New(),
		}
		s.freed.L = &s.mu
		bp.shards = append(bp.shards, s)
	}
	return bp
}

func (bp *BufferPool) shardFor(id PageID) *shard {
	return bp.shards[uint32(id)&bp.mask]
}

// Shards returns the number of lock stripes (for tests and diagnostics).
func (bp *BufferPool) Shards() int { return len(bp.shards) }

// Device returns the underlying device.
func (bp *BufferPool) Device() Device { return bp.dev }

// Stats returns a snapshot of the pool counters — a view over the
// registry instruments (internal/obs). Counters are atomics, so the
// snapshot is race-clean even against concurrent fetches (each field
// is individually exact; the set is not a single instant's cut).
func (bp *BufferPool) Stats() Stats {
	return Stats{
		Hits:      bp.o.hits.Load(),
		Misses:    bp.o.misses.Load(),
		Reads:     bp.o.reads.Load(),
		Writes:    bp.o.writes.Load(),
		Evictions: bp.o.evictions.Load(),
	}
}

// ResetStats zeroes the pool counters (atomic stores; safe against
// concurrent fetches).
func (bp *BufferPool) ResetStats() {
	bp.o.hits.Reset()
	bp.o.misses.Reset()
	bp.o.reads.Reset()
	bp.o.writes.Reset()
	bp.o.evictions.Reset()
}

// evictOne writes back and drops the shard's least recently used unpinned
// frame. Caller holds s.mu.
func (bp *BufferPool) evictOne(s *shard) error {
	back := s.lru.Back()
	if back == nil {
		return ErrPoolFull
	}
	id := back.Value.(PageID)
	fr := s.frames[id]
	if fr.dirty {
		if err := bp.dev.WritePage(&fr.page); err != nil {
			return err
		}
		bp.o.writes.Inc()
		bp.prof.Load().PageWrite()
	}
	s.lru.Remove(back)
	delete(s.frames, id)
	bp.o.evictions.Inc()
	if tr := bp.o.tr; tr.Active() {
		tr.Point(0, "storage.pool.evict", obs.F("page", id), obs.F("dirty", fr.dirty))
	}
	return nil
}

// roomy reports whether the shard can take one more frame, by eviction
// if need be. Caller holds s.mu.
func (s *shard) roomy() bool {
	return len(s.frames) < s.capacity || s.lru.Len() > 0
}

// waitFreed blocks until Unpin releases a frame or the wait that began
// at the first call (which sets *deadline) exceeds poolWaitBound; then it
// returns ErrPoolFull. Caller holds s.mu, which the wait releases, so the
// caller must re-check the shard afterwards.
func (s *shard) waitFreed(deadline *time.Time) error {
	if deadline.IsZero() {
		*deadline = time.Now().Add(poolWaitBound)
	}
	left := time.Until(*deadline)
	if left <= 0 {
		return ErrPoolFull
	}
	t := time.AfterFunc(left, func() {
		s.mu.Lock()
		s.freed.Broadcast()
		s.mu.Unlock()
	})
	s.waiters++
	s.freed.Wait()
	s.waiters--
	t.Stop()
	return nil
}

// ensureRoom makes space for one more frame in the shard. Caller holds
// s.mu.
func (bp *BufferPool) ensureRoom(s *shard) error {
	for len(s.frames) >= s.capacity {
		if err := bp.evictOne(s); err != nil {
			return err
		}
	}
	return nil
}

// Fetch returns the page pinned. The caller must Unpin it.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	s := bp.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	var deadline time.Time
	for {
		if fr, ok := s.frames[id]; ok {
			bp.o.hits.Inc()
			bp.prof.Load().PoolHit()
			if fr.elem != nil {
				s.lru.Remove(fr.elem)
				fr.elem = nil
			}
			fr.pins++
			return &fr.page, nil
		}
		if s.roomy() {
			break
		}
		if err := s.waitFreed(&deadline); err != nil {
			return nil, err
		}
	}
	bp.o.misses.Inc()
	bp.prof.Load().PoolMiss()
	if tr := bp.o.tr; tr.Active() {
		tr.Point(0, "storage.pool.miss", obs.F("page", id))
	}
	if err := bp.ensureRoom(s); err != nil {
		return nil, err
	}
	fr := &frame{pins: 1}
	if err := bp.dev.ReadPage(id, &fr.page); err != nil {
		return nil, err
	}
	bp.o.reads.Inc()
	bp.prof.Load().PageRead()
	s.frames[id] = fr
	return &fr.page, nil
}

// NewPage allocates a fresh page on the device, initializes it as an empty
// slotted page, and returns it pinned and dirty.
func (bp *BufferPool) NewPage() (*Page, error) {
	id, err := bp.dev.Allocate()
	if err != nil {
		return nil, err
	}
	s := bp.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	var deadline time.Time
	for !s.roomy() {
		if err := s.waitFreed(&deadline); err != nil {
			return nil, err
		}
	}
	if err := bp.ensureRoom(s); err != nil {
		return nil, err
	}
	fr := &frame{pins: 1, dirty: true}
	fr.page.ID = id
	fr.page.InitPage()
	s.frames[id] = fr
	return &fr.page, nil
}

// Contains reports whether the page is currently resident, without
// affecting LRU order or pin counts. A false answer means a Fetch would
// miss and read the device — the signal per-unit heat attribution keys on.
func (bp *BufferPool) Contains(id PageID) bool {
	s := bp.shardFor(id)
	s.mu.Lock()
	_, ok := s.frames[id]
	s.mu.Unlock()
	return ok
}

// Unpin releases one pin on the page, marking it dirty if the caller
// modified it. When the pin count reaches zero the page becomes evictable.
func (bp *BufferPool) Unpin(id PageID, dirty bool) {
	s := bp.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, ok := s.frames[id]
	if !ok || fr.pins == 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", id))
	}
	if dirty {
		fr.dirty = true
	}
	fr.pins--
	if fr.pins == 0 {
		fr.elem = s.lru.PushFront(id)
		if s.waiters > 0 {
			s.freed.Broadcast()
		}
	}
}

// FlushAll writes every dirty frame back to the device and syncs it.
// Frames stay cached.
func (bp *BufferPool) FlushAll() error {
	for _, s := range bp.shards {
		s.mu.Lock()
		for _, fr := range s.frames {
			if fr.dirty {
				if err := bp.dev.WritePage(&fr.page); err != nil {
					s.mu.Unlock()
					return err
				}
				bp.o.writes.Inc()
				fr.dirty = false
			}
		}
		s.mu.Unlock()
	}
	return bp.dev.Sync()
}

// Len returns the number of cached frames.
func (bp *BufferPool) Len() int {
	n := 0
	for _, s := range bp.shards {
		s.mu.Lock()
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}
