package storage

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Group-commit defaults: how long a batch leader waits for stragglers
// and how many waiters one fsync may cover.
const (
	DefaultCommitWait  = 200 * time.Microsecond
	DefaultCommitBatch = 64
)

// GroupCommitter amortizes WAL fsyncs across concurrent committers.
// Every caller of Sync joins the current batch; the member that opened
// the batch leads it: it queues on the sync latch (the batch fills while
// the previous batch's fsync runs), optionally waits up to maxWait for
// stragglers (bounded by maxBatch), issues one WAL.Sync covering every
// member's appended records, and wakes the followers — who park on the
// batch's done channel only, never on the latch. Committers arriving
// while a sync is in flight form the next batch, so under load the fsync
// count grows with the number of batches, not the number of commits.
//
// The leader only waits when more committers are demonstrably en route
// (they have entered Sync but not yet joined a batch), so a lone
// committer pays exactly one fsync and no artificial delay.
type GroupCommitter struct {
	wal      *WAL
	maxWait  time.Duration
	maxBatch int

	// active counts goroutines currently inside Sync. The leader
	// compares it against its batch size to decide whether waiting can
	// grow the batch at all.
	active atomic.Int64

	mu   sync.Mutex
	cond *sync.Cond
	cur  *gcBatch

	// syncMu serializes batch syncs; the holder is the current leader.
	syncMu sync.Mutex

	o gcObs
}

// gcBatch is one group of committers covered by a single fsync.
type gcBatch struct {
	n       int
	err     error
	done    chan struct{}
	expired bool
}

// NewGroupCommitter returns a coordinator over w (nil for an in-memory
// database: every Sync is then a no-op, but the instruments still
// register so the metric family is always exposed). maxWait <= 0 and
// maxBatch <= 0 select DefaultCommitWait and DefaultCommitBatch, which is
// what db.Open asks for; tests pass other caps.
func NewGroupCommitter(w *WAL, maxWait time.Duration, maxBatch int) *GroupCommitter {
	if maxWait <= 0 {
		maxWait = DefaultCommitWait
	}
	if maxBatch <= 0 {
		maxBatch = DefaultCommitBatch
	}
	g := &GroupCommitter{wal: w, maxWait: maxWait, maxBatch: maxBatch}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Sync blocks until one WAL fsync covers everything appended before the
// call, sharing the fsync with every concurrent caller. It returns the
// error of the covering fsync (every member of a failed batch sees it).
func (g *GroupCommitter) Sync() error {
	if g == nil || g.wal == nil {
		return nil
	}
	start := time.Now()
	g.active.Add(1)

	g.mu.Lock()
	b := g.cur
	leader := false
	if b == nil || b.n >= g.maxBatch {
		// First member of a fresh batch leads it. A full batch also
		// forces a fresh one — its own leader is already queued on the
		// latch and will seal it.
		b = &gcBatch{done: make(chan struct{})}
		g.cur = b
		leader = true
	}
	b.n++
	// Joined a batch: no longer "en route". Decrementing here — not on
	// return — keeps active meaning exactly "entered Sync but not yet in
	// any batch"; members already settled in batches must not make a
	// leader wait a window for stragglers that can never join.
	g.active.Add(-1)
	g.cond.Broadcast()
	g.mu.Unlock()

	if !leader {
		// Followers park on the batch verdict alone. Keeping them off
		// the sync latch matters for pipelining: a drained batch's
		// members all wake at once from one channel close, loop around,
		// and land in the batch currently filling — instead of
		// re-serializing through the latch one scheduler wakeup at a
		// time, which starves the next batch down to size ~1.
		<-b.done
		g.o.waiters.Inc()
		g.o.waitNs.Observe(int64(time.Since(start)))
		return b.err
	}

	// Leader: serialize with the previous batch's fsync. The batch fills
	// while this blocks — that is where batching comes from under load.
	g.syncMu.Lock()
	// Cheap pre-wait: concurrent committers that just finished their
	// engine work are often one context switch away from entering Sync,
	// yet invisible to the en-route gauge. Yield the processor a few
	// times so they can arrive before this batch pays an fsync. With no
	// runnable peers Gosched returns immediately, so a lone committer
	// loses nothing.
	for i := 0; i < 4 && g.active.Load() == 0; i++ {
		runtime.Gosched()
	}
	g.mu.Lock()
	// Give stragglers a bounded window to join, but only while some are
	// actually en route (entered Sync, not yet in a batch).
	if g.maxWait > 0 && b.n < g.maxBatch && g.active.Load() > 0 {
		timer := time.AfterFunc(g.maxWait, func() {
			g.mu.Lock()
			b.expired = true
			g.cond.Broadcast()
			g.mu.Unlock()
		})
		for !b.expired && b.n < g.maxBatch && g.active.Load() > 0 {
			g.cond.Wait()
		}
		timer.Stop()
	}
	if g.cur == b {
		g.cur = nil
	}
	n := b.n
	g.mu.Unlock()
	b.err = g.wal.Sync()
	close(b.done)
	g.syncMu.Unlock()

	g.o.syncs.Inc()
	g.o.batchSize.Observe(int64(n))
	g.o.waiters.Inc()
	g.o.waitNs.Observe(int64(time.Since(start)))
	return b.err
}
