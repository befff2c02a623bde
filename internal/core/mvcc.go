// MVCC version store: multi-versioning over the engine's object graph,
// keyed by a commit-sequence clock. The head of each object's chain is
// the committed object itself; the engine holds no other copy (its heads
// map indexes the same records for latched reads).
//
// A transaction never writes a shared record. Its first touch of an
// object clones the head into its overlay (a creation starts there), and
// every later write of it mutates that private copy; the overlay's key
// set is the write set. CommitVersions publishes the overlay as the new
// heads, one commit boundary, under the engine's exclusive latch and
// still under the transaction's §7 exclusive locks; AbortVersions drops
// it, and there is nothing to restore. An engine-direct write (tx 0) has
// a one-operation overlay, published when the operation ends; a schema
// change publishes its transaction's overlay with its catalog edit
// (Engine.evolve). §7 strict 2PL on composite units keeps concurrent
// write sets disjoint, so two overlays never hold the same object.
//
// Three readers see the store. A read outside any transaction takes the
// shared latch and reads the heads: publication holds the exclusive
// latch, so such a read is an implicit snapshot at the clock and never
// sees an uncommitted write. A transaction's own reads look in its
// overlay first. A Snapshot resolves an object by walking its chain,
// newest first, for the first node at or below the snapshot's sequence
// number; chain heads, next pointers and the clock are the only shared
// state it touches, all through atomic loads, and the engine latch, the
// install mutex and the §7 lock manager are never acquired
// (snapshot_test.go asserts both). A head that deferred schema changes
// (§4.3) still apply to is converted on a private copy when fetched.
//
// Publication order is the correctness hinge: publishLocked stores every
// node of a boundary before it advances the clock. A snapshot begun at
// sequence S therefore either sees none of boundary S+1's nodes (they
// all have seq S+1 > S) or — having read clock >= S — sees all of
// boundary S's nodes, because the clock store sequences after the node
// stores and Go's atomics are sequentially consistent.
//
// Garbage collection is low-watermark based: the watermark is the oldest
// active snapshot sequence (or the clock when none is active), and every
// chain node strictly older than the newest node at-or-below the
// watermark is unreachable by any current or future snapshot. A version
// is reclaimed when its last possible reader goes: publishLocked prunes
// every chain it writes right after publishing, so with no snapshot open
// each chain holds exactly its head and a deleted object holds no chain;
// a chain a snapshot still pins is remembered in the pinned set, and
// Snapshot.Release prunes that set against the watermark its release
// leaves. No sweep ever walks the whole store.
package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/object"
	"repro/internal/uid"
)

// versionNode is one committed version of one object: the object as a
// commit boundary published it under sequence seq, or a tombstone (obj
// nil) when the boundary deleted it. A published object is never written
// again. next links to the previous (older) version; it is atomic because
// the pruner truncates tails while readers walk.
type versionNode struct {
	seq  uint64
	obj  *object.Object // nil = deleted at this boundary
	next atomic.Pointer[versionNode]
}

// versionChain is one object's version history, newest first.
type versionChain struct {
	head atomic.Pointer[versionNode]
}

// overlay is a transaction's private write set: for each object it wrote,
// its private copy, or nil when it deleted the object.
type overlay map[uid.UID]*object.Object

// mvccState is the engine's version store. Publication holds the engine
// latch exclusively and installMu, which also serializes the pruning a
// Snapshot.Release runs without the latch; reads are lock-free.
type mvccState struct {
	chains sync.Map      // uid.UID -> *versionChain
	clock  atomic.Uint64 // sequence of the newest fully published boundary

	installMu sync.Mutex
	// pinned holds the UIDs whose chains kept more than a plain head
	// after their last prune (an older version, or a tombstone head)
	// because a snapshot could still read it; Release prunes exactly
	// these. Guarded by installMu.
	pinned map[uid.UID]struct{}

	// active holds a refcount per registered snapshot sequence; its
	// minimum is the GC low-watermark. snapMu also guards the clock read
	// in BeginSnapshot so registration cannot race a concurrent watermark
	// computation into pruning a version the new snapshot needs. Lock
	// order: installMu, then snapMu.
	snapMu sync.Mutex
	active map[uint64]int
}

// CommitSeq returns the version clock: the sequence number of the newest
// published commit boundary.
func (e *Engine) CommitSeq() uint64 { return e.mvcc.clock.Load() }

// chainHead returns the newest version node of id, or nil when it has no
// chain.
func (e *Engine) chainHead(id uid.UID) *versionNode {
	if ci, ok := e.mvcc.chains.Load(id); ok {
		return ci.(*versionChain).head.Load()
	}
	return nil
}

// head returns the committed object id, nil when there is none. Caller
// holds e.mu.
func (e *Engine) head(id uid.UID) *object.Object { return e.heads[id] }

// publishLocked makes objs the committed state as one commit boundary:
// each object (nil: a deletion) heads its chain under the next sequence
// number, and the clock advances only after every node is in place. The
// heads map, the extents and the publish hook follow the chains.
// Caller holds e.mu for writing.
//
// Only then does it read the watermark and prune the chains it wrote, so
// with no snapshot open each keeps just the new head and a tombstone
// takes its chain with it. This cannot cut a version a snapshot needs: a
// snapshot registered before the clock store is in active and holds the
// watermark at or below its sequence; one registered after it reads a
// clock of at least seq, and every chain written here still has its
// newest node at or below seq.
func (e *Engine) publishLocked(objs overlay) {
	if len(objs) == 0 {
		return
	}
	e.mvcc.installMu.Lock()
	seq := e.mvcc.clock.Load() + 1
	for id, o := range objs {
		ci, ok := e.mvcc.chains.Load(id)
		if !ok {
			ci, _ = e.mvcc.chains.LoadOrStore(id, &versionChain{})
		}
		ch := ci.(*versionChain)
		n := &versionNode{seq: seq, obj: o}
		n.next.Store(ch.head.Load())
		ch.head.Store(n)
		_, was := e.heads[id]
		switch {
		case o != nil:
			e.heads[id] = o
			if !was {
				e.extentFor(id.Class).Add(id)
			}
		case was:
			delete(e.heads, id)
			e.extentFor(id.Class).Remove(id)
		}
	}
	e.mvcc.clock.Store(seq)
	wm := e.versionWatermark()
	pruned := 0
	for id := range objs {
		pruned += e.pruneLocked(id, wm)
	}
	e.mvcc.installMu.Unlock()
	e.o.mvccInstalls.Add(uint64(len(objs)))
	e.o.mvccVersionsLive.Add(int64(len(objs)))
	e.reclaimed(pruned)
	if h := e.pubHook; h != nil { // a publication cannot fail: errors are dropped
		for id, o := range objs {
			if o != nil {
				h.OnWrite(0, o)
			} else {
				h.OnDelete(0, id)
			}
		}
	}
}

// CommitVersions publishes the transaction's overlay as one commit
// boundary. The transaction layer calls it, through its boundary's
// publish, after the durability boundary and before releasing any lock,
// so a snapshot begun from here on sees all of the write set or none of
// it.
func (e *Engine) CommitVersions(tx TxnID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ov := e.overlays[tx]
	delete(e.overlays, tx)
	e.publishLocked(ov)
}

// AbortVersions rolls the transaction back by dropping its overlay:
// nothing it wrote was ever published, so nothing is restored and no hook
// is called.
func (e *Engine) AbortVersions(tx TxnID) {
	e.mu.Lock()
	delete(e.overlays, tx)
	e.mu.Unlock()
}

// versionWatermark returns the GC low-watermark: the oldest sequence any
// active snapshot reads at, or the clock when no snapshot is active.
// Every version strictly older than the newest node at-or-below the
// watermark is unreachable — a snapshot registered after this call gets
// a sequence at least as new as the clock read here.
func (e *Engine) versionWatermark() uint64 {
	e.mvcc.snapMu.Lock()
	defer e.mvcc.snapMu.Unlock()
	return e.watermarkLocked()
}

// watermarkLocked computes the watermark and refreshes the
// mvcc_snapshot_age gauge: how many commit boundaries behind the clock
// the oldest active snapshot reads (0 with none active). Caller holds
// snapMu.
func (e *Engine) watermarkLocked() uint64 {
	clock := e.mvcc.clock.Load()
	wm := clock
	for s := range e.mvcc.active {
		if s < wm {
			wm = s
		}
	}
	e.o.mvccSnapshotAge.Set(int64(clock - wm))
	return wm
}

// pruneLocked cuts the unreachable tail of id's chain: everything
// strictly older than the newest node with seq <= wm. When that node is
// the head and a tombstone, no snapshot can see the object at all and the
// whole chain is removed from the map (old nodes stay intact for any
// reader already walking them — they are merely unreachable from the
// map). A chain left with more than a live head is recorded as pinned,
// any other dropped from the pinned set. Returns the number of nodes
// reclaimed. Caller holds installMu.
func (e *Engine) pruneLocked(id uid.UID, wm uint64) int {
	ci, ok := e.mvcc.chains.Load(id)
	if !ok {
		return 0
	}
	ch := ci.(*versionChain)
	head := ch.head.Load()
	n := head
	for n != nil && n.seq > wm {
		n = n.next.Load()
	}
	cut := 0
	if n != nil {
		for t := n.next.Load(); t != nil; t = t.next.Load() {
			cut++
		}
		if cut > 0 {
			n.next.Store(nil)
		}
		if n == head && n.obj == nil {
			e.mvcc.chains.Delete(id)
			delete(e.mvcc.pinned, id)
			return cut + 1
		}
	}
	if head.obj == nil || head.next.Load() != nil {
		e.mvcc.pinned[id] = struct{}{}
	} else {
		delete(e.mvcc.pinned, id)
	}
	return cut
}

// reclaimPinned prunes the pinned chains against the current watermark.
// Snapshot.Release calls it after unregistering, so the watermark may
// have risen; the work is bounded by the writes made while snapshots
// were open, not by the size of the store.
func (e *Engine) reclaimPinned() {
	e.mvcc.installMu.Lock()
	wm := e.versionWatermark()
	pruned := 0
	for id := range e.mvcc.pinned {
		pruned += e.pruneLocked(id, wm)
	}
	e.mvcc.installMu.Unlock()
	e.reclaimed(pruned)
}

// reclaimed accounts n pruned version nodes in the mvcc gauges.
func (e *Engine) reclaimed(n int) {
	if n > 0 {
		e.o.mvccGCReclaimed.Add(uint64(n))
		e.o.mvccVersionsLive.Add(-int64(n))
	}
}

// VersionsLive returns the mvcc_versions_live gauge (0 with a nil
// registry), for tests and the sim soak's plateau check.
func (e *Engine) VersionsLive() int64 { return e.o.mvccVersionsLive.Load() }
