// MVCC version store: copy-on-write multi-versioning over the engine's
// object graph, keyed by a commit-sequence clock.
//
// Every mutation path, schema evolution and copy included, funnels its
// write set through writeThrough. The version store piggybacks on that
// funnel: an engine-direct mutation (tx 0) publishes an immutable clone of
// each object it touched as one commit boundary; a transactional
// mutation only notes the touched UIDs, and the whole accumulated write
// set is published as a single boundary when the transaction layer calls
// CommitVersions — still under the transaction's §7 exclusive locks, so
// the set is quiescent. The note keeps, per UID, the chain head at the
// transaction's first write of it: the last committed version, which is
// the transaction's pre-image. AbortVersions puts those back; the version
// store is the transaction's only undo record.
//
// Readers never see any of this machinery's locks. A Snapshot resolves
// an object by walking its version chain — newest first, linked through
// atomic pointers — for the first node at or below the snapshot's
// sequence number. Chain heads, next pointers, and the clock are the
// only shared state a snapshot read touches, all via atomic loads; the
// engine latch, the install mutex, and the §7 lock manager are never
// acquired (snapshot_test.go asserts both).
//
// Publication order is the correctness hinge: installLocked stores every
// node of a boundary before it advances the clock. A snapshot begun at
// sequence S therefore either sees none of boundary S+1's nodes (they
// all have seq S+1 > S) or — having read clock ≥ S — sees all of
// boundary S's nodes, because the clock store sequences after the node
// stores and Go's atomics are sequentially consistent.
//
// Garbage collection is low-watermark based: the watermark is the oldest
// active snapshot sequence (or the clock when none is active), and every
// chain node strictly older than the newest node at-or-below the
// watermark is unreachable by any current or future snapshot. A version
// is reclaimed when its last possible reader goes: installLocked prunes
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

// versionNode is one committed version of one object: an immutable clone
// published under the commit sequence seq, or a tombstone (obj nil) when
// the commit deleted the object. next links to the previous (older)
// version; it is atomic because the pruner truncates tails while readers
// walk.
type versionNode struct {
	seq  uint64
	obj  *object.Object // nil = deleted at this boundary
	next atomic.Pointer[versionNode]
}

// versionChain is one object's version history, newest first.
type versionChain struct {
	head atomic.Pointer[versionNode]
}

// mvccState is the engine's version store. Installs are serialized by
// installMu (they also hold the engine latch at least shared, which
// keeps the live objects quiescent while cloning); reads are lock-free.
type mvccState struct {
	chains sync.Map      // uid.UID -> *versionChain
	clock  atomic.Uint64 // sequence of the newest fully published boundary

	installMu sync.Mutex
	// pinned holds the UIDs whose chains kept more than a plain head
	// after their last prune (an older version, or a tombstone head)
	// because a snapshot could still read it; Release prunes exactly
	// these. Guarded by installMu.
	pinned map[uid.UID]struct{}

	// pending accumulates the per-transaction write sets between the
	// first tagged write and CommitVersions/AbortVersions: each UID maps
	// to the chain head it had at the transaction's first write (nil for
	// an object the transaction created).
	pendingMu sync.Mutex
	pending   map[TxnID]map[uid.UID]*versionNode

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

// noteWritesLocked adds an operation's write set (dirty plus deleted) to
// the transaction's pending set, noting each UID's chain head at its
// first write. The caller holds e.mu for writing, so no install runs
// between the splice and the note: the head is the last committed
// version. A no-op for an engine-direct write (tx 0), which installs
// instead.
func (e *Engine) noteWritesLocked(tx TxnID, d *dirtySet, deleted []uid.UID) {
	if tx == 0 {
		return
	}
	e.mvcc.pendingMu.Lock()
	defer e.mvcc.pendingMu.Unlock()
	firsts := e.mvcc.pending[tx]
	if firsts == nil {
		firsts = make(map[uid.UID]*versionNode)
		e.mvcc.pending[tx] = firsts
	}
	note := func(id uid.UID) {
		if _, ok := firsts[id]; !ok {
			firsts[id] = e.chainHead(id)
		}
	}
	for _, id := range d.ids.Slice() {
		note(id)
	}
	for _, id := range deleted {
		note(id)
	}
}

// chainHead returns the newest version node of id, or nil when it has no
// chain.
func (e *Engine) chainHead(id uid.UID) *versionNode {
	if ci, ok := e.mvcc.chains.Load(id); ok {
		return ci.(*versionChain).head.Load()
	}
	return nil
}

// takePending removes and returns the transaction's pending set.
func (e *Engine) takePending(tx TxnID) map[uid.UID]*versionNode {
	e.mvcc.pendingMu.Lock()
	defer e.mvcc.pendingMu.Unlock()
	firsts := e.mvcc.pending[tx]
	delete(e.mvcc.pending, tx)
	return firsts
}

// installLocked publishes one commit boundary covering ids: a clone of
// each live object (a tombstone for each missing one) is prepended to
// its chain under the next sequence number, and the clock is advanced
// only after every node is in place. Caller holds e.mu (read or write),
// which keeps the objects quiescent while they are cloned.
//
// Only then does it read the watermark and prune the chains it wrote, so
// with no snapshot open each keeps just the new head and a tombstone
// takes its chain with it. This cannot cut a version a snapshot needs: a
// snapshot registered before the clock store is in active and holds the
// watermark at or below its sequence; one registered after it reads a
// clock of at least seq, and every chain written here still has its
// newest node at or below seq.
func (e *Engine) installLocked(ids []uid.UID) {
	if len(ids) == 0 {
		return
	}
	e.mvcc.installMu.Lock()
	seq := e.mvcc.clock.Load() + 1
	for _, id := range ids {
		var obj *object.Object
		if o, ok := e.objects[id]; ok {
			obj = o.Clone()
		}
		ci, _ := e.mvcc.chains.LoadOrStore(id, &versionChain{})
		ch := ci.(*versionChain)
		n := &versionNode{seq: seq, obj: obj}
		n.next.Store(ch.head.Load())
		ch.head.Store(n)
	}
	e.mvcc.clock.Store(seq)
	wm := e.versionWatermark()
	pruned := 0
	for _, id := range ids {
		pruned += e.pruneLocked(id, wm)
	}
	e.mvcc.installMu.Unlock()
	e.o.mvccInstalls.Add(uint64(len(ids)))
	e.o.mvccVersionsLive.Add(int64(len(ids)))
	e.reclaimed(pruned)
}

// CommitVersions publishes the transaction's accumulated write set as
// one atomic commit boundary. The transaction layer calls it after the
// durability boundary and before releasing any lock: strict 2PL still
// holds the write set exclusively, so no concurrent writer can be
// mid-splice on any of these objects while they are cloned.
func (e *Engine) CommitVersions(tx TxnID) {
	firsts := e.takePending(tx)
	if len(firsts) == 0 {
		return
	}
	ids := make([]uid.UID, 0, len(firsts))
	for id := range firsts {
		ids = append(ids, id)
	}
	e.mu.RLock()
	e.installLocked(ids)
	e.mu.RUnlock()
}

// AbortVersions rolls the transaction back: every object it wrote gets a
// clone of its version at the transaction's first write, and every object
// it created is evicted. Strict 2PL kept every other writer off them, so
// that version still heads each chain. The restorations go to the hook
// under tx, for the indexes; the persistence hook drops tx's group at
// OnAbort.
func (e *Engine) AbortVersions(tx TxnID) error {
	firsts := e.takePending(tx)
	if len(firsts) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	restored := newDirtySet()
	var gone []uid.UID
	for id, n := range firsts {
		if n == nil || n.obj == nil {
			e.evictLocked(id)
			gone = append(gone, id)
		} else {
			e.objects[id] = n.obj.Clone()
			e.extentFor(id.Class).Add(id)
			restored.add(id)
		}
	}
	return e.notifyLocked(tx, restored, uid.Nil, uid.Nil, gone)
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
