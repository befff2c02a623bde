package storage

import "repro/internal/obs"

// walObs holds the WAL's pre-resolved instruments: append volume
// counters plus fsync count and latency (fsync dominates commit cost,
// so it is always timed and feeds the slow log).
type walObs struct {
	tr          *obs.Tracer
	slow        *obs.SlowLog
	appends     *obs.Counter
	appendBytes *obs.Counter
	fsyncs      *obs.Counter
	fsyncNs     *obs.Histogram
}

// gcObs holds the group-commit coordinator's pre-resolved instruments:
// batch counts and sizes (the fsync amortization factor is
// syncs_total / waiters_total) plus the per-committer wait latency.
type gcObs struct {
	syncs     *obs.Counter
	waiters   *obs.Counter
	batchSize *obs.Histogram
	waitNs    *obs.Histogram
}

// GroupCommitBatchBuckets are the batch-size histogram bounds.
var GroupCommitBatchBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128}

// SetObservability rebinds the coordinator's instruments to r (nil
// disables them). Call before concurrent use.
func (g *GroupCommitter) SetObservability(r *obs.Registry) {
	g.o = gcObs{
		syncs:     r.Counter("storage_wal_group_commit_syncs_total"),
		waiters:   r.Counter("storage_wal_group_commit_waiters_total"),
		batchSize: r.Histogram("storage_wal_group_commit_batch_size", GroupCommitBatchBuckets),
		waitNs:    r.Histogram("storage_wal_group_commit_wait_ns", nil),
	}
}

// SetObservability rebinds the log's instruments to r (nil disables
// them). Call before the log is used concurrently.
func (w *WAL) SetObservability(r *obs.Registry) {
	w.o = walObs{
		tr:          r.Tracer(),
		slow:        r.Slow(),
		appends:     r.Counter("wal_append_total"),
		appendBytes: r.Counter("wal_append_bytes_total"),
		fsyncs:      r.Counter("wal_fsync_total"),
		fsyncNs:     r.Histogram("wal_fsync_ns", nil),
	}
}
