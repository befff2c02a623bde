// Per-operation cost attribution: a ProfCtx travels with one query or
// transaction and accumulates the costs the global registry can only
// report in aggregate — lock waits by mode, MVCC versions walked,
// traversal-cache hits, WAL bytes — plus a span tree for a
// pretty-printed cost breakdown.
//
// Attachment is per call path: engine traversals carry a ProfCtx in
// core.QueryOpts, snapshots pin one with SetProf, the lock manager keys
// registered contexts by transaction ID (exact under concurrency), and
// the WAL takes an ambient context via an atomic pointer —
// ambient attribution is exact whenever one profiled operation runs at a
// time (the shell's (profile ...) and the sim consistency checks), and
// approximate under concurrent unprofiled load.
//
// Every counter is atomic and every method accepts a nil receiver, so
// instrumentation sites cost one branch when no profile is attached —
// the same contract as the rest of the package.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ProfCtx accumulates the costs of one profiled operation.
type ProfCtx struct {
	Label string
	start time.Time
	wall  atomic.Int64 // set by Finish

	// WAL.
	walAppends atomic.Uint64
	walBytes   atomic.Uint64

	// Lock admission, by mode name (IS, IX, S, X, ...). Waits are rare
	// and already slow, so a mutex-guarded map is fine here.
	lockMu     sync.Mutex
	lockWaits  map[string]*LockWaitCost
	lockWaitNs atomic.Int64
	lockWaitN  atomic.Uint64

	// Engine traversal.
	objectsVisited atomic.Uint64
	cacheHits      atomic.Uint64
	cacheMisses    atomic.Uint64

	// MVCC snapshot reads.
	versionsWalked atomic.Uint64

	// Span tree (serial: one profiled operation is evaluated at a time).
	spanMu sync.Mutex
	spans  []ProfSpan
	depth  int
}

// LockWaitCost is the accumulated wait behind one lock mode.
type LockWaitCost struct {
	Count uint64
	Ns    int64
}

// ProfSpan is one timed phase of the profiled operation, at a nesting
// depth for tree rendering.
type ProfSpan struct {
	Name  string
	Depth int
	Dur   time.Duration
}

// NewProfCtx returns a live profile context; the wall clock starts now.
func NewProfCtx(label string) *ProfCtx {
	return &ProfCtx{Label: label, start: time.Now(), lockWaits: map[string]*LockWaitCost{}}
}

// Finish stamps the wall time. Safe to call more than once; the last
// call wins.
func (p *ProfCtx) Finish() {
	if p != nil {
		p.wall.Store(int64(time.Since(p.start)))
	}
}

// Wall returns the wall time stamped by Finish (or the running elapsed
// time if Finish has not been called).
func (p *ProfCtx) Wall() time.Duration {
	if p == nil {
		return 0
	}
	if w := p.wall.Load(); w != 0 {
		return time.Duration(w)
	}
	return time.Since(p.start)
}

// WALAppend records one WAL append of n payload-frame bytes.
func (p *ProfCtx) WALAppend(n int) {
	if p != nil {
		p.walAppends.Add(1)
		p.walBytes.Add(uint64(n))
	}
}

// LockWait records one wait of d behind a lock held in mode.
func (p *ProfCtx) LockWait(mode string, d time.Duration) {
	if p == nil {
		return
	}
	p.lockWaitN.Add(1)
	p.lockWaitNs.Add(int64(d))
	p.lockMu.Lock()
	lw := p.lockWaits[mode]
	if lw == nil {
		lw = &LockWaitCost{}
		p.lockWaits[mode] = lw
	}
	lw.Count++
	lw.Ns += int64(d)
	p.lockMu.Unlock()
}

// ObjectVisited records one object materialized by a traversal.
func (p *ProfCtx) ObjectVisited() {
	if p != nil {
		p.objectsVisited.Add(1)
	}
}

// CacheHit records one traversal-cache hit (ancestor or plan cache).
func (p *ProfCtx) CacheHit() {
	if p != nil {
		p.cacheHits.Add(1)
	}
}

// CacheMiss records one traversal-cache miss.
func (p *ProfCtx) CacheMiss() {
	if p != nil {
		p.cacheMisses.Add(1)
	}
}

// VersionsWalked records n MVCC chain nodes examined by a snapshot read.
func (p *ProfCtx) VersionsWalked(n int) {
	if p != nil && n > 0 {
		p.versionsWalked.Add(uint64(n))
	}
}

// Span times one phase: call it at phase start and invoke the returned
// func at phase end. Nested calls indent in the report.
func (p *ProfCtx) Span(name string) func() {
	if p == nil {
		return func() {}
	}
	p.spanMu.Lock()
	d := p.depth
	p.depth++
	i := len(p.spans)
	p.spans = append(p.spans, ProfSpan{Name: name, Depth: d})
	p.spanMu.Unlock()
	t0 := time.Now()
	return func() {
		el := time.Since(t0)
		p.spanMu.Lock()
		p.spans[i].Dur = el
		p.depth--
		p.spanMu.Unlock()
	}
}

// ProfCounts is the flat numeric view of a context, for tests and JSON.
type ProfCounts struct {
	WALAppends     uint64 `json:"wal_appends"`
	WALBytes       uint64 `json:"wal_bytes"`
	LockWaits      uint64 `json:"lock_waits"`
	LockWaitNs     int64  `json:"lock_wait_ns"`
	ObjectsVisited uint64 `json:"objects_visited"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	VersionsWalked uint64 `json:"versions_walked"`
}

// Counts returns the current counter values.
func (p *ProfCtx) Counts() ProfCounts {
	if p == nil {
		return ProfCounts{}
	}
	return ProfCounts{
		WALAppends:     p.walAppends.Load(),
		WALBytes:       p.walBytes.Load(),
		LockWaits:      p.lockWaitN.Load(),
		LockWaitNs:     p.lockWaitNs.Load(),
		ObjectsVisited: p.objectsVisited.Load(),
		CacheHits:      p.cacheHits.Load(),
		CacheMisses:    p.cacheMisses.Load(),
		VersionsWalked: p.versionsWalked.Load(),
	}
}

// LockWaits returns the per-mode wait costs, copied.
func (p *ProfCtx) LockWaits() map[string]LockWaitCost {
	if p == nil {
		return nil
	}
	p.lockMu.Lock()
	defer p.lockMu.Unlock()
	out := make(map[string]LockWaitCost, len(p.lockWaits))
	for m, lw := range p.lockWaits {
		out[m] = *lw
	}
	return out
}

// Spans returns the recorded span tree in start order.
func (p *ProfCtx) Spans() []ProfSpan {
	if p == nil {
		return nil
	}
	p.spanMu.Lock()
	defer p.spanMu.Unlock()
	return append([]ProfSpan(nil), p.spans...)
}

// TopCosts returns a compact "k=v k=v" summary of the non-zero
// counters, for flight records and log lines.
func (p *ProfCtx) TopCosts() string {
	if p == nil {
		return ""
	}
	c := p.Counts()
	var parts []string
	add := func(k string, v uint64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, v))
		}
	}
	add("visited", c.ObjectsVisited)
	add("cache_hit", c.CacheHits)
	add("cache_miss", c.CacheMisses)
	add("wal_bytes", c.WALBytes)
	add("versions", c.VersionsWalked)
	if c.LockWaits != 0 {
		parts = append(parts, fmt.Sprintf("lock_wait=%d/%s", c.LockWaits, time.Duration(c.LockWaitNs)))
	}
	return strings.Join(parts, " ")
}

// Report renders the cost tree: wall time, the span tree, then one line
// per non-zero cost class, stable across runs (modes sorted).
func (p *ProfCtx) Report() string {
	if p == nil {
		return "(no profile)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s: wall %s\n", p.Label, p.Wall().Round(time.Microsecond))
	for _, s := range p.Spans() {
		fmt.Fprintf(&b, "  %s%s %s\n", strings.Repeat("  ", s.Depth), s.Name, s.Dur.Round(time.Microsecond))
	}
	c := p.Counts()
	line := func(format string, args ...any) { fmt.Fprintf(&b, "  "+format+"\n", args...) }
	if c.ObjectsVisited != 0 || c.CacheHits != 0 || c.CacheMisses != 0 {
		line("traversal: %d objects visited, cache %d hit / %d miss", c.ObjectsVisited, c.CacheHits, c.CacheMisses)
	}
	if c.WALAppends != 0 {
		line("wal: %d appends, %d bytes", c.WALAppends, c.WALBytes)
	}
	if c.VersionsWalked != 0 {
		line("mvcc: %d versions walked", c.VersionsWalked)
	}
	if c.LockWaits != 0 {
		waits := p.LockWaits()
		modes := make([]string, 0, len(waits))
		for m := range waits {
			modes = append(modes, m)
		}
		sort.Strings(modes)
		var ws []string
		for _, m := range modes {
			lw := waits[m]
			ws = append(ws, fmt.Sprintf("%s×%d %s", m, lw.Count, time.Duration(lw.Ns).Round(time.Microsecond)))
		}
		line("locks: %d waits, %s total (%s)", c.LockWaits, time.Duration(c.LockWaitNs).Round(time.Microsecond), strings.Join(ws, ", "))
	}
	if c == (ProfCounts{}) {
		line("no attributable costs recorded")
	}
	return strings.TrimRight(b.String(), "\n")
}
