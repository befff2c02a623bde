package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/storage"
)

// config is what the flags fix for every run of one invocation.
type config struct {
	root    string // repository root
	outDir  string // benchmark/out: scratch databases, traces, result files
	bin     string // the built orion-server
	seconds float64
	setups  int // set-ups per untraced run; setup_s is their median
}

// Window lengths derive from -seconds, so one factor scales them all.
func (c *config) measure() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}
func (c *config) warm() time.Duration { return c.measure() / 6 }

// A traced run sets up once, so it can afford a wire window of half the
// length for the /metrics deltas and then a full-length ladder: the rung
// differences are small numbers under fsync noise and want the samples.
func (c *config) tracedWindow() time.Duration { return c.measure() / 2 }
func (c *config) ladderTime() time.Duration   { return c.measure() }

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Samples   int                `json:"latency_samples"`
	Values    map[string]float64 `json:"values"`
	Error     string             `json:"error,omitempty"`
	Env       *envStamp          `json:"env"`
}

// runLoad measures one workload over the wire and returns the instance's
// window plus everything read off the instance before it is stopped.
func runLoad(cfg *config, s *spec, seed int64, setups int, warm, measure time.Duration, res *result) error {
	var in *instance
	var setupS []float64
	for i := 0; i < setups; i++ {
		in.stop() // keep only the last one running
		var err error
		if in, err = setUp(cfg.bin, cfg.outDir, s, seed); err != nil {
			return err
		}
		setupS = append(setupS, in.setup.Seconds())
		logf("%s: set-up %d/%d %.3fs (preload %.3fs, recovery %.3fs, %d objects)",
			s.name, i+1, setups, in.setup.Seconds(), in.load.Seconds(), in.recovery.Seconds(), in.recovered)
	}
	defer in.stop()

	conns, err := dialAll(in.srv.addr, s.clients)
	if err != nil {
		return err
	}
	defer closeAll(conns)
	workers := make([]*worker, s.clients)
	for c := range workers {
		workers[c] = &worker{cn: conns[c], g: newGen(s, in.m, seed, c), lat: make([]int64, 0, 1<<16)}
	}
	win, err := runWindow(in.srv, in.m, workers, warm, measure)
	if err != nil {
		return fmt.Errorf("%w\n%s", err, in.srv.lastWords())
	}
	rss, err := in.srv.rssPeakMB()
	if err != nil {
		return err
	}
	disk, err := dirBytes(in.dir)
	if err != nil {
		return err
	}

	res.Attempted, res.Failed, res.Samples = win.attempted, win.failed, len(win.lat)
	if win.attempted == 0 || len(win.lat) == 0 {
		return fmt.Errorf("%s: no operation completed in the window (first error: %v)\n%s", s.name, win.firstErr, in.srv.lastWords())
	}
	res.Correct = true
	if win.firstErr != nil {
		res.Correct = false
		res.Error = win.firstErr.Error()
	}
	live, err := verifyState(conns[0], in.m, seed)
	if err != nil {
		res.Correct = false
		res.Error = "after the window: " + err.Error()
	}

	ops := float64(win.ok())
	v := res.Values
	v["setup_s"] = median(setupS)
	v["throughput_ops_s"] = ops / win.elapsed.Seconds()
	v["latency_p50_us"] = float64(percentile(win.lat, 50)) / 1e3
	v["server_cpu_ms_per_kop"] = win.cpuMs / ops * 1000
	v["server_rss_mb"] = rss

	v["client.latency_p95_us"] = float64(percentile(win.lat, 95)) / 1e3
	v["client.latency_p99_us"] = float64(percentile(win.lat, 99)) / 1e3
	v["client.latency_max_us"] = float64(win.lat[len(win.lat)-1]) / 1e3
	v["client.retries_per_op"] = float64(win.retries) / ops
	v["client.failed_ops_ratio"] = float64(win.failed) / float64(win.attempted)
	v["core.objects_per_reply"] = float64(win.refs) / ops
	v["db.recovery_s"] = in.recovery.Seconds()
	v["db.recovered_objects"] = float64(in.recovered)
	if live > 0 {
		v["storage.disk_bytes_per_live_object"] = float64(disk) / float64(live)
	}
	serverMetrics(win.m, ops, float64(win.payload), v)
	return nil
}

// hitRate is hits/(hits+misses); a cache nobody asked has missed nothing.
func hitRate(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return hits / (hits + misses)
}

// serverMetrics turns the /metrics delta of a window into the M-sourced
// per-layer numbers. ops is the count of successful client ops.
func serverMetrics(m samples, ops, payload float64, v map[string]float64) {
	commits := m["txn_commit_total"]
	// Commits that wrote a log: read-only transactions skip the WAL.
	logged := m.sum("storage_shard_local_commit_total", "storage_shard_cross_commit_total")
	v["server.request_ns_mean"] = ratio(m["server_request_ns_sum"], m["server_request_ns_count"])
	v["server.rx_bytes_per_op"] = m["server_rx_bytes_total"] / ops
	v["server.tx_bytes_per_op"] = m["server_tx_bytes_total"] / ops
	v["txn.aborts_per_commit"] = ratio(m["txn_abort_total"], commits)
	v["txn.deadlock_retries_per_commit"] = ratio(m["txn_deadlock_retries_total"], commits)
	v["lock.acquires_per_op"] = m["lock_acquire_total"] / ops
	v["lock.upgrades_per_op"] = m["lock_upgrade_total"] / ops
	v["lock.waits_per_op"] = m["lock_wait_total"] / ops
	v["lock.wait_ns_per_op"] = m["lock_wait_ns_sum"] / ops
	v["lock.deadlocks_per_commit"] = ratio(m["lock_deadlock_total"], commits)
	v["core.traversal_ns_per_op"] = m["core_traversal_ns_sum"] / ops
	v["core.cache_hit_rate"] = hitRate(
		m.sum("core_cache_ancestor_hits_total", "core_cache_partition_hits_total", "core_cache_plan_hits_total"),
		m.sum("core_cache_ancestor_misses_total", "core_cache_partition_misses_total", "core_cache_plan_misses_total"))
	v["core.stalecc_retries_per_op"] = m["core_stalecc_retries_total"] / ops
	v["core.delete_cascaded_per_op"] = m["core_delete_cascaded_total"] / ops
	v["core.mvcc_installs_per_op"] = m["mvcc_installs_total"] / ops
	v["storage.wal_appends_per_op"] = m["wal_append_total"] / ops
	v["storage.wal_bytes_per_op"] = m["wal_append_bytes_total"] / ops
	v["storage.fsyncs_per_commit"] = ratio(m["wal_fsync_total"], logged)
	v["storage.group_commit_batch_mean"] = ratio(m["storage_wal_group_commit_batch_size_sum"], m["storage_wal_group_commit_batch_size_count"])
	v["storage.group_commit_wait_ns_per_commit"] = ratio(m["storage_wal_group_commit_wait_ns_sum"], logged)
	v["storage.pool_hit_rate"] = hitRate(m["storage_pool_hits_total"], m["storage_pool_misses_total"])
	v["storage.pool_evictions_per_op"] = m["storage_pool_evictions_total"] / ops
	v["storage.page_reads_per_op"] = m["storage_pool_reads_total"] / ops
	v["storage.page_writes_per_op"] = m["storage_pool_writes_total"] / ops
	v["storage.write_amp"] = ratio(m["wal_append_bytes_total"]+m["storage_pool_writes_total"]*storage.PageSize, payload)
}

// runWorkload is one driver-style run: untraced gives the end-to-end
// metrics, traced the per-layer ones.
func runWorkload(cfg *config, s *spec, seed int64, traced bool) *result {
	res := &result{Workload: s.name, Seed: seed, Traced: traced, Values: map[string]float64{}}
	err := func() error {
		if !traced {
			return runLoad(cfg, s, seed, cfg.setups, cfg.warm(), cfg.measure(), res)
		}
		if err := runLoad(cfg, s, seed, 1, cfg.warm(), cfg.tracedWindow(), res); err != nil {
			return err
		}
		return runLadder(cfg, s, seed, res)
	}()
	if err != nil {
		res.Correct = false
		res.Error = err.Error()
	}
	return res
}

// runLadder climbs the in-process ladder and the leaf drivers.
func runLadder(cfg *config, s *spec, seed int64, res *result) error {
	l, err := newLadder(s, cfg.outDir, seed)
	if err != nil {
		return err
	}
	defer l.close()
	if err := l.run(time.Now().Add(cfg.ladderTime())); err != nil {
		return err
	}
	l.metrics(res.Values)
	if err := l.leafMetrics(cfg.outDir, res.Values); err != nil {
		return err
	}
	if err := l.checkpointAndOpen(res.Values); err != nil {
		return err
	}
	path := tracePath(cfg.outDir, s.name)
	if err := l.writeTrace(path); err != nil {
		return err
	}
	logf("%s: ladder %d ops per rung, %d spans -> %s", s.name, len(l.rungs[rCore].lat), len(l.tr.spans), path)
	for _, r := range l.rungs {
		logf("%s: rung %-5s p50 %9.1f us  trimmed mean %9.1f us", s.name, r.name, median(toFloat(r.lat))/1e3, trimmedMean(r.lat)/1e3)
	}
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
