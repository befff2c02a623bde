package core

import (
	"repro/internal/obs"
)

// engineObs holds the engine's pre-resolved observability instruments.
// Counters are bound once from a registry (private by default, shared
// when db.Open installs its own), so hot paths pay one atomic add per
// event and never a registry lookup. With a nil registry every
// instrument is nil and each emission site reduces to a nil-check — the
// no-instrumentation baseline BenchmarkObsDisabled measures against.
type engineObs struct {
	reg *obs.Registry
	rec *obs.Recorder

	// Plan-memo counters (traverse.go).
	planHits   *obs.Counter
	planMisses *obs.Counter

	// Mutation and evolution counters.
	attaches         *obs.Counter
	detaches         *obs.Counter
	deletes          *obs.Counter
	deleteCascaded   *obs.Counter
	evolutionReplays *obs.Counter

	deleteNs    *obs.Histogram
	traversalNs *obs.Histogram

	// MVCC version-store instruments (mvcc.go / snapshot.go).
	mvccInstalls        *obs.Counter
	mvccGCReclaimed     *obs.Counter
	mvccSnapshotBegins  *obs.Counter
	mvccVersionsLive    *obs.Gauge
	mvccSnapshotsActive *obs.Gauge
	mvccSnapshotAge     *obs.Gauge
}

// bindObs resolves the engine's instruments from r. A nil registry binds
// nil instruments (every obs method accepts a nil receiver), making all
// instrumentation a branch.
func (e *Engine) bindObs(r *obs.Registry) {
	e.o = engineObs{
		reg:              r,
		rec:              r.Recorder(),
		planHits:         r.Counter("core_cache_plan_hits_total"),
		planMisses:       r.Counter("core_cache_plan_misses_total"),
		attaches:         r.Counter("core_attach_total"),
		detaches:         r.Counter("core_detach_total"),
		deletes:          r.Counter("core_delete_total"),
		deleteCascaded:   r.Counter("core_delete_cascaded_total"),
		evolutionReplays: r.Counter("core_evolution_replays_total"),
		deleteNs:         r.Histogram("core_delete_ns", nil),
		traversalNs:      r.Histogram("core_traversal_ns", nil),

		mvccInstalls:        r.Counter("mvcc_installs_total"),
		mvccGCReclaimed:     r.Counter("mvcc_gc_reclaimed_total"),
		mvccSnapshotBegins:  r.Counter("mvcc_snapshot_begin_total"),
		mvccVersionsLive:    r.Gauge("mvcc_versions_live"),
		mvccSnapshotsActive: r.Gauge("mvcc_snapshots_active"),
		mvccSnapshotAge:     r.Gauge("mvcc_snapshot_age"),
	}
}

// Observability returns the engine's registry: its own private one by
// default, or whatever SetObservability installed (possibly nil).
func (e *Engine) Observability() *obs.Registry { return e.o.reg }

// SetObservability rebinds the engine's instruments to r — db.Open uses
// it to share one registry across every subsystem. A nil r disables
// instrumentation entirely (nil-check fast path, no atomics). It must be
// called before the engine is used concurrently: rebinding swaps the
// instrument pointers without synchronization.
func (e *Engine) SetObservability(r *obs.Registry) { e.bindObs(r) }
