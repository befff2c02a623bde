package db

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/uid"
)

// The background reclusterer: the dynamic half of the clustering policy
// bake-off. Static placement (storage.Placement) decides where an object
// is BORN; the reclusterer corrects placement after the fact, migrating
// composite units the buffer pool demonstrably misses on into their own
// contiguous segment. The pipeline:
//
//  1. Heat: Store.Get attributes every pool miss to the unit root of the
//     object read (obs.UnitHeat), and the write-through hook adds write
//     activity. Heat decays once per pass, so units that cool off stop
//     attracting work.
//  2. Selection: each pass takes the hottest units above the
//     ReclusterHotMisses threshold, at most ReclusterBatch of them.
//  3. Safety: a unit is migrated under the §7 unit-root X lock, acquired
//     through the same composite protocol transactions use — the
//     reclusterer is just another (very short) writer, so it can never
//     race a transaction on the unit, and a deadlock verdict simply
//     skips the unit until the next pass.
//  4. Durability: every relocation is WAL-logged as an OpMove BEFORE the
//     pages change, carrying the target segment by name. Replay applies
//     moves in log order, so a crash at any byte of the log leaves every
//     object readable from exactly one location.
//
// Migration places the unit root first and chains each member next to
// its predecessor in composite BFS order — the §2.3 layout a cold
// top-down traversal wants, now earned by observed usage rather than
// guessed at creation (DSTC/OPCF in spirit).

// reclusterObs is the storage_recluster_* metric family.
type reclusterObs struct {
	passes       *obs.Counter // pass executions
	migrations   *obs.Counter // units migrated
	objectsMoved *obs.Counter // individual records relocated
	skipped      *obs.Counter // hot units skipped (busy, vanished, already placed)
	heatTouches  *obs.Counter // per-unit heat attributions
	unitsTracked *obs.Gauge   // distinct units with nonzero heat
}

func (d *DB) bindReclusterObs() {
	d.rec = reclusterObs{
		passes:       d.reg.Counter("storage_recluster_passes_total"),
		migrations:   d.reg.Counter("storage_recluster_migrations_total"),
		objectsMoved: d.reg.Counter("storage_recluster_objects_moved_total"),
		skipped:      d.reg.Counter("storage_recluster_skipped_total"),
		heatTouches:  d.reg.Counter("storage_recluster_heat_touches_total"),
		unitsTracked: d.reg.Gauge("storage_recluster_units_tracked"),
	}
}

// ReclusterStatus is the shell-facing view of the reclusterer.
type ReclusterStatus struct {
	Policy       string // active placement policy
	Background   bool   // background loop running
	HotMisses    uint64 // heat threshold for migration
	Passes       uint64
	Migrations   uint64 // units migrated
	ObjectsMoved uint64
	Skipped      uint64
	UnitsTracked int // units with nonzero heat right now
}

// PlacementName returns the active clustering policy's selector string.
func (d *DB) PlacementName() string { return d.place.Name() }

// ReclusterStatus reports the reclusterer's counters and configuration.
func (d *DB) ReclusterStatus() ReclusterStatus {
	d.mu.Lock()
	bg := d.recStop != nil
	d.mu.Unlock()
	return ReclusterStatus{
		Policy:       d.place.Name(),
		Background:   bg,
		HotMisses:    d.hotMisses(),
		Passes:       d.rec.passes.Load(),
		Migrations:   d.rec.migrations.Load(),
		ObjectsMoved: d.rec.objectsMoved.Load(),
		Skipped:      d.rec.skipped.Load(),
		UnitsTracked: d.heat.Len(),
	}
}

func (d *DB) hotMisses() uint64 {
	if d.opts.ReclusterHotMisses > 0 {
		return uint64(d.opts.ReclusterHotMisses)
	}
	return storage.DefaultHotMisses
}

// reclusterLoop drives background reclustering until Close or Abandon,
// mirroring versionGCLoop: the stop channel is passed in because Close
// nils the field under d.mu.
func (d *DB) reclusterLoop(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// Errors are absorbed: a failing pass (e.g. the DB closed
			// mid-tick) leaves the store exactly as consistent as before,
			// and the next tick — or the stop channel — decides what's next.
			_, _ = d.ReclusterNow()
		}
	}
}

// ReclusterNow runs one reclustering pass synchronously and reports how
// many units were migrated. Safe to call with the background loop active
// (passes serialize on d.mu for their move phase) and usable with the
// loop disabled — tests and the shell's (recluster now) drive it directly.
func (d *DB) ReclusterNow() (int, error) {
	d.rec.passes.Inc()
	hot := d.heat.Hot(d.hotMisses(), d.reclusterBatch())
	migrated := 0
	for _, k := range hot {
		root := uid.UID{Class: uid.ClassID(k.Class), Serial: k.Serial}
		n, err := d.reclusterUnit(root)
		switch {
		case err == nil && n > 0:
			migrated++
			d.rec.migrations.Inc()
			d.rec.objectsMoved.Add(uint64(n))
			d.heat.Forget(k)
		case err == nil:
			// Nothing to do: already placed, or the unit vanished.
			d.rec.skipped.Inc()
			d.heat.Forget(k)
		case errors.Is(err, lock.ErrDeadlock):
			// The unit is busy; keep its heat and retry on a later pass.
			d.rec.skipped.Inc()
		case errors.Is(err, ErrClosed):
			return migrated, err
		default:
			return migrated, fmt.Errorf("db: recluster unit %v: %w", root, err)
		}
	}
	d.heat.Decay()
	return migrated, nil
}

func (d *DB) reclusterBatch() int {
	if d.opts.ReclusterBatch > 0 {
		return d.opts.ReclusterBatch
	}
	return 8
}

// reclusterUnit migrates the composite unit rooted at root into its own
// segment. The §7 X admission is taken BEFORE d.mu so a lock wait never
// stalls Checkpoint/Close; the move phase then holds d.mu, which keeps
// the WAL appends and page moves strictly outside any checkpoint (the
// checkpoint's quiescence assumption) and outside Close's teardown.
func (d *DB) reclusterUnit(root uid.UID) (int, error) {
	tx := d.txm.Reserve()
	if err := d.txm.Protocol().LockUnitsWrite(tx, root); err != nil {
		d.txm.Locks().ReleaseAll(tx)
		return 0, err
	}
	defer d.txm.Locks().ReleaseAll(tx)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	if !d.store.Has(root) {
		return 0, nil
	}
	members := []uid.UID{root}
	comps, err := d.engine.ComponentsOf(root, core.QueryOpts{})
	if err != nil {
		return 0, nil // vanished between selection and locking
	}
	members = append(members, comps...)
	name := fmt.Sprintf("unit:%d.%d", root.Class, root.Serial)
	seg, err := d.segmentNamed(name)
	if err != nil {
		return 0, err
	}
	allPlaced := true
	for _, id := range members {
		if s, ok := d.store.SegmentOf(id); ok && s != seg {
			allPlaced = false
			break
		}
	}
	if allPlaced {
		return 0, nil
	}
	// Root first, then members in composite BFS order, each clustered next
	// to its predecessor: the contiguous layout a §3 traversal reads.
	moved := 0
	prev := uid.Nil
	for _, id := range members {
		if !d.store.Has(id) {
			continue
		}
		if d.wal != nil {
			if err := d.wal.Append(storage.WALRecord{
				Op: storage.OpMove, UID: id, Seg: seg, Near: prev, Data: []byte(name),
			}); err != nil {
				return moved, err
			}
			d.appends.Add(1)
		}
		if err := d.store.Move(seg, id, prev); err != nil {
			if errors.Is(err, storage.ErrNotFound) {
				continue
			}
			return moved, err
		}
		prev = id
		moved++
	}
	if d.wal != nil && d.opts.SyncWAL {
		if err := d.syncLog(); err != nil {
			return moved, err
		}
	}
	return moved, nil
}
