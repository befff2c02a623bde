package core

import (
	"sort"

	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/uid"
)

// Snapshot is a read-only, lock-free view of the engine at one commit
// boundary. Every query resolves objects through the version chains at
// the snapshot's sequence number and never acquires the engine latch or
// any §7 lock, so long analytical scans cannot stall writers and writers
// cannot move the ground under a scan: the view is the exact committed
// state at sequence Seq, however long the snapshot lives.
//
// Like a Txn, a Snapshot is single-goroutine (one goroutine per
// snapshot, many snapshots in parallel). Its queries are the methods of
// its View: the engine's own walks (traverse.go) over the version chains
// instead of the heads.
//
// Objects returned by Get are the shared immutable version records:
// callers must treat them as read-only.
//
// The schema catalog is pinned too: BeginSnapshot captures an immutable
// clone of the catalog at the snapshot's commit boundary (clones are
// cached per catalog version, so consecutive snapshots under a stable
// schema share one), and every class-dependent answer — traversal plans,
// class filters, IsA tests — resolves against that clone. A schema
// evolution committed after BeginSnapshot is therefore invisible to the
// snapshot's queries, matching the object-graph isolation: the snapshot
// answers with the schema AND the data that were live at Seq.
//
// Release must be called when done: an unreleased snapshot pins the GC
// low-watermark and the chains written after it grow until Release.
type Snapshot struct {
	View
	seq      uint64
	cat      *schema.Catalog
	released bool

	// prof, when set via SetProf, receives cost attribution for the
	// snapshot's reads: objects visited and MVCC version-chain nodes
	// walked. Single-goroutine like the rest of the snapshot.
	prof *obs.ProfCtx
}

// BeginSnapshot registers a read-only snapshot at the current commit
// boundary. Registration pins the snapshot's sequence against the
// version GC until Release.
func (e *Engine) BeginSnapshot() *Snapshot {
	e.mvcc.snapMu.Lock()
	seq := e.mvcc.clock.Load()
	e.mvcc.active[seq]++
	e.watermarkLocked() // refreshes mvcc_snapshot_age
	e.mvcc.snapMu.Unlock()
	e.o.mvccSnapshotBegins.Inc()
	e.o.mvccSnapshotsActive.Add(1)
	s := &Snapshot{seq: seq, cat: e.catalogView()}
	s.View = View{e: e, snap: s}
	return s
}

// catalogView returns an immutable clone of the catalog at its current
// version, cached so that consecutive snapshots under an unchanged schema
// share one clone instead of copying the catalog per BeginSnapshot. The
// version re-check after cloning guards the race where the catalog
// mutates between the Version read and the Clone: the clone carries its
// own consistent version, which is what keys the cache.
func (e *Engine) catalogView() *schema.Catalog {
	ver := e.cat.Version()
	e.catViewMu.Lock()
	defer e.catViewMu.Unlock()
	if e.catView != nil && e.catView.Version() == ver {
		return e.catView
	}
	e.catView = e.cat.Clone()
	return e.catView
}

// Seq returns the commit boundary the snapshot reads at.
func (s *Snapshot) Seq() uint64 { return s.seq }

// SetProf attaches (or, with nil, detaches) a profile context: until
// changed, every read through the snapshot attributes its objects
// visited and version-chain nodes walked to p.
func (s *Snapshot) SetProf(p *obs.ProfCtx) { s.prof = p }

// Release unregisters the snapshot and reclaims the versions only it
// still pinned. Idempotent.
func (s *Snapshot) Release() {
	if s.released {
		return
	}
	s.released = true
	e := s.e
	e.mvcc.snapMu.Lock()
	if n := e.mvcc.active[s.seq]; n <= 1 {
		delete(e.mvcc.active, s.seq)
	} else {
		e.mvcc.active[s.seq] = n - 1
	}
	e.mvcc.snapMu.Unlock()
	e.o.mvccSnapshotsActive.Add(-1)
	e.reclaimPinned()
}

// object resolves id at the snapshot boundary: the newest version at or
// below seq, nil when the object did not exist there (no chain, no
// version that old, or a tombstone). Lock-free: two atomic loads per
// chain node. It makes the snapshot a walk source (traverse.go).
func (s *Snapshot) object(id uid.UID) *object.Object {
	ci, ok := s.e.mvcc.chains.Load(id)
	if !ok {
		return nil
	}
	walked := 0
	for n := ci.(*versionChain).head.Load(); n != nil; n = n.next.Load() {
		walked++
		if n.seq <= s.seq {
			s.prof.VersionsWalked(walked)
			if n.obj != nil {
				s.prof.ObjectVisited()
			}
			return n.obj
		}
	}
	s.prof.VersionsWalked(walked)
	return nil
}

// Each calls fn with every object visible at the snapshot boundary, in
// no particular order, and stops at fn's first error. Objects are passed
// as stored: deferred schema changes (§4.3) are not applied, so each
// keeps its CC stamp and is converted when next fetched. A checkpoint
// streams its snapshot file through Each.
func (s *Snapshot) Each(fn func(o *object.Object) error) error {
	var err error
	s.e.mvcc.chains.Range(func(k, _ any) bool {
		if o := s.object(k.(uid.UID)); o != nil {
			err = fn(o)
		}
		return err == nil
	})
	return err
}

// UIDs returns every object visible at the snapshot boundary, in UID
// order.
func (s *Snapshot) UIDs() []uid.UID {
	var out []uid.UID
	s.e.mvcc.chains.Range(func(k, v any) bool {
		for n := v.(*versionChain).head.Load(); n != nil; n = n.next.Load() {
			if n.seq <= s.seq {
				if n.obj != nil {
					out = append(out, k.(uid.UID))
				}
				break
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Len returns the number of objects visible at the snapshot boundary.
func (s *Snapshot) Len() int { return len(s.UIDs()) }
