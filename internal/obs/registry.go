// Package obs is the system's observability substrate: a dependency-free
// registry of atomic counters, gauges, and fixed-bucket histograms with
// Prometheus-style text exposition and a JSON snapshot, plus one
// lock-free ring of operation and trace records (recorder.go).
//
// Every subsystem (core engine, WAL, lock manager,
// transaction manager) binds its instruments from one shared Registry;
// db.Open wires a single registry through all of them so one scrape sees
// the whole system. Components constructed standalone bind a private
// registry, so instruments are always non-nil and call sites never
// branch on "is observability configured".
//
// Cost model: counters and gauges are single atomic adds; histograms are
// a bounds scan plus three atomic adds. Tracing is off by default and
// guarded by one atomic load (nil-receiver-safe), so the disabled path
// costs a branch; an op record is one allocation, one atomic add and one
// pointer store — BenchmarkObsDisabled in the root package pins the
// hot-path overhead under 5%.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The nil receiver is
// accepted on every method so optional instrumentation can call through
// without a guard.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter. The store is atomic, so concurrent readers
// see either the old or the new value, never a torn one.
func (c *Counter) Reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (negative to subtract).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Reset zeroes the gauge.
func (g *Gauge) Reset() {
	if g != nil {
		g.v.Store(0)
	}
}

// DurationBuckets are the default histogram bounds for nanosecond
// latencies: 1µs to 10s, one decade per bucket.
var DurationBuckets = []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000}

// Histogram is a fixed-bucket histogram over int64 observations
// (nanoseconds for latencies). Buckets are cumulative on exposition,
// Prometheus-style. Each Observe is one bounds scan plus three atomic
// adds; fields are individually exact but the set is not a single
// instant's cut (same contract as the rest of the registry).
type Histogram struct {
	bounds  []int64 // upper bounds, ascending; +Inf implied
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-th quantile (0 < q < 1) of the observed
// distribution by linear interpolation inside the bucket that crosses
// the cumulative rank. Values in the overflow (+Inf) bucket clamp to
// the top bound. Returns 0 when the histogram is empty or nil.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i >= len(h.bounds) {
				// Overflow bucket: no upper bound to interpolate toward.
				return h.bounds[len(h.bounds)-1]
			}
			lo := int64(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / n
			return lo + int64(frac*float64(hi-lo))
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Reset zeroes every bucket, the count, and the sum (each store atomic).
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// HistogramSnapshot is the JSON form of one histogram. P50/P95/P99 are
// interpolated quantile estimates (see Histogram.Quantile), zero when
// the histogram is empty.
type HistogramSnapshot struct {
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"` // per-bucket (not cumulative); last is +Inf
	Sum    int64    `json:"sum"`
	Count  uint64   `json:"count"`
	P50    int64    `json:"p50"`
	P95    int64    `json:"p95"`
	P99    int64    `json:"p99"`
}

// Snapshot is a point-in-time JSON-friendly view of a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Registry holds named instruments plus the recorder. Lookups are
// mutex-guarded get-or-create; callers are expected to resolve their
// instruments once at construction and hold the pointers, so lookup cost
// never lands on a hot path.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	rec Recorder
}

// NewRegistry returns an empty registry and its recorder, with tracing
// and the slow threshold off. The recorder's record and dump counters are
// bound here, so the flight_* family is visible on the first scrape.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	r.rec.records = r.Counter("flight_records_total")
	r.rec.dumps = r.Counter("flight_dumps_total")
	return r
}

// Recorder returns the registry's recorder: the ring behind the trace,
// slow and flight views (nil for a nil registry, which every Recorder
// method accepts).
func (r *Registry) Recorder() *Recorder {
	if r == nil {
		return nil
	}
	return &r.rec
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. bounds is
// used only on first creation; nil selects DurationBuckets.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{
			bounds:  append([]int64(nil), bounds...),
			buckets: make([]atomic.Uint64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered instrument. Each field is reset with an
// atomic store, so Reset is race-free against concurrent writers and
// readers (go test -race covers this); it does not attempt a consistent
// global cut — counters incremented mid-reset keep their increment.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Reset()
	}
	for _, h := range r.hists {
		h.Reset()
	}
}

// ResetPrefix zeroes every instrument whose name starts with prefix.
func (r *Registry) ResetPrefix(prefix string) {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for n, c := range r.counters {
		if hasPrefix(n, prefix) {
			c.Reset()
		}
	}
	for n, g := range r.gauges {
		if hasPrefix(n, prefix) {
			g.Reset()
		}
	}
	for n, h := range r.hists {
		if hasPrefix(n, prefix) {
			h.Reset()
		}
	}
}

func hasPrefix(s, p string) bool {
	return len(s) >= len(p) && s[:len(p)] == p
}

// Snapshot returns a point-in-time copy of every instrument, for the
// JSON endpoint and the bench harness.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Load()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			hs := HistogramSnapshot{
				Bounds: append([]int64(nil), h.bounds...),
				Counts: make([]uint64, len(h.buckets)),
				Sum:    h.sum.Load(),
				Count:  h.count.Load(),
				P50:    h.Quantile(0.50),
				P95:    h.Quantile(0.95),
				P99:    h.Quantile(0.99),
			}
			for i := range h.buckets {
				hs.Counts[i] = h.buckets[i].Load()
			}
			s.Histograms[n] = hs
		}
	}
	return s
}

// names returns the sorted instrument names of each kind, for
// deterministic exposition.
func (r *Registry) names() (counters, gauges, hists []string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for n := range r.counters {
		counters = append(counters, n)
	}
	for n := range r.gauges {
		gauges = append(gauges, n)
	}
	for n := range r.hists {
		hists = append(hists, n)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)
	return
}
