package main

// Dataset shapes. One composite unit is the Example 2 document of §2.3:
// 1 Document + 4 Sections + 32 Paragraphs = 37 objects.
const (
	unitSections = 4
	sectionParas = 8

	// A bulk composite is what bulk_lifecycle builds in one transaction:
	// 1 Document x 8 Sections x 16 Paragraphs = 137 objects.
	bulkSections = 8
	bulkParas    = 16
	bulkKeep     = 8 // bulk composites alive at any time

	floatersPerClient = 16 // mixed_shared: sections each client moves between documents
	floaterParas      = 2

	madeParas  = 2  // write_small: paragraphs under a Section made during the run
	madeMax    = 64 // write_small: per-client cap on made Sections awaiting deletion
	textBytes  = 64 // user payload of one Text attribute
	maxRetries = 8  // deadlock victims retry with (begin N) this many times
	checkEvery = 16 // one reply in this many is compared against the shadow model
)

// spec is one workload: a dataset, a client count and an operation mix.
type spec struct {
	name    string
	why     string // one line, copied into BENCHMARK.json
	units   int    // composite units preloaded
	shared  bool   // every Section is a shared component of two Documents
	clients int    // closed-loop connections; never more than nproc
	zipfS   float64
	// ladderUnits caps the dataset the in-process ladder loads: the ladder
	// measures CPU per layer, which does not depend on the data exceeding
	// the buffer pool, and four in-process copies of L would not fit the
	// run-time budget.
	ladderUnits int
}

const (
	unitsS = 200  // ~7.4k objects: fits the 256-page pool
	unitsL = 2000 // ~74k objects: several times the pool
)

var specs = []spec{
	{
		name:    "read_hot",
		why:     "Zipf reads on a dataset that fits every cache: server+sexpr+core do all the work, txn/lock/storage none",
		units:   unitsS,
		clients: 2,
		zipfS:   1.0,
	},
	{
		name:        "write_small",
		why:         "one-attribute commits on data larger than the pool: txn, WAL append, group commit and fsync dominate; no conflicts",
		units:       unitsL,
		clients:     2,
		ladderUnits: unitsS,
	},
	{
		name:    "mixed_shared",
		why:     "reads beside writes on shared composites under Zipf skew: the only workload with lock waits and deadlocks",
		units:   unitsS,
		shared:  true,
		clients: 2,
		zipfS:   1.1,
	},
	{
		name:    "bulk_lifecycle",
		why:     "137-object transactions and cascade deletes: parse, Make-Component checks, encoding and WAL bytes, fsync amortised",
		units:   unitsS,
		clients: 1,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// metricDef names one reported number. The tables below are the single
// source for names, units, directions and bounds; a test pins
// BENCHMARK.json to them.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"server_cpu_ms_per_kop", "ms", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.20},
}

var perLayer = []metricDef{
	{name: "client.latency_p95_us", unit: "us", better: "lower"},
	{name: "client.latency_p99_us", unit: "us", better: "lower"},
	{name: "client.latency_max_us", unit: "us", better: "lower"},
	{name: "client.retries_per_op", unit: "count", better: "lower"},
	{name: "client.failed_ops_ratio", unit: "ratio", better: "lower"},
	{name: "server.wire_tax_us", unit: "us", better: "lower"},
	{name: "server.frame_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.request_ns_mean", unit: "ns", better: "lower"},
	{name: "server.rx_bytes_per_op", unit: "B", better: "lower"},
	{name: "server.tx_bytes_per_op", unit: "B", better: "lower"},
	{name: "sexpr.parse_ns_per_op", unit: "ns", better: "lower"},
	{name: "sexpr.eval_self_ns_per_op", unit: "ns", better: "lower"},
	{name: "txn.begin_ns_per_op", unit: "ns", better: "lower"},
	{name: "txn.commit_ns_per_op", unit: "ns", better: "lower"},
	{name: "txn.aborts_per_commit", unit: "ratio", better: "lower"},
	{name: "txn.deadlock_retries_per_commit", unit: "ratio", better: "lower"},
	{name: "lock.admit_ns_per_op", unit: "ns", better: "lower"},
	{name: "lock.acquires_per_op", unit: "count", better: "lower"},
	{name: "lock.upgrades_per_op", unit: "count", better: "lower"},
	{name: "lock.waits_per_op", unit: "count", better: "lower"},
	{name: "lock.wait_ns_per_op", unit: "ns", better: "lower"},
	{name: "lock.deadlocks_per_commit", unit: "ratio", better: "lower"},
	{name: "core.op_ns_per_op", unit: "ns", better: "lower"},
	{name: "core.traversal_ns_per_op", unit: "ns", better: "lower"},
	{name: "core.objects_per_reply", unit: "count", better: "lower"},
	{name: "core.cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "core.stalecc_retries_per_op", unit: "count", better: "lower"},
	{name: "core.delete_cascaded_per_op", unit: "count", better: "lower"},
	{name: "core.mvcc_installs_per_op", unit: "count", better: "lower"},
	{name: "query.select_ns_per_op", unit: "ns", better: "lower"},
	{name: "encoding.encode_ns_per_object", unit: "ns", better: "lower"},
	{name: "encoding.bytes_per_object", unit: "B", better: "lower"},
	{name: "storage.wal_appends_per_op", unit: "count", better: "lower"},
	{name: "storage.wal_bytes_per_op", unit: "B", better: "lower"},
	{name: "storage.wal_append_ns", unit: "ns", better: "lower"},
	{name: "storage.fsyncs_per_commit", unit: "ratio", better: "lower"},
	{name: "storage.fsync_ns_p50", unit: "ns", better: "lower"},
	{name: "storage.group_commit_batch_mean", unit: "count", better: "higher"},
	{name: "storage.group_commit_wait_ns_per_commit", unit: "ns", better: "lower"},
	{name: "storage.pool_hit_rate", unit: "ratio", better: "higher"},
	{name: "storage.pool_evictions_per_op", unit: "count", better: "lower"},
	{name: "storage.page_reads_per_op", unit: "count", better: "lower"},
	{name: "storage.page_writes_per_op", unit: "count", better: "lower"},
	{name: "storage.write_amp", unit: "ratio", better: "lower"},
	{name: "storage.disk_bytes_per_live_object", unit: "B", better: "lower"},
	{name: "db.recovery_s", unit: "s", better: "lower"},
	{name: "db.recovered_objects", unit: "count", better: "higher"},
	{name: "db.checkpoint_s", unit: "s", better: "lower"},
	{name: "db.open_s", unit: "s", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}
