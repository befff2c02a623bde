package obs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProfCtxCounts(t *testing.T) {
	p := NewProfCtx("test")
	p.WALAppend(26)
	p.WALAppend(10)
	p.ObjectVisited()
	p.CacheHit()
	p.CacheMiss()
	p.VersionsWalked(3)
	p.LockWait("X", 5*time.Millisecond)
	p.LockWait("X", 3*time.Millisecond)
	p.LockWait("IS", time.Millisecond)
	p.Finish()

	c := p.Counts()
	want := ProfCounts{
		WALAppends: 2, WALBytes: 36,
		LockWaits: 3, LockWaitNs: int64(9 * time.Millisecond),
		ObjectsVisited: 1, CacheHits: 1, CacheMisses: 1, VersionsWalked: 3,
	}
	if c != want {
		t.Fatalf("Counts = %+v, want %+v", c, want)
	}
	waits := p.LockWaits()
	if waits["X"].Count != 2 || waits["X"].Ns != int64(8*time.Millisecond) {
		t.Fatalf("X waits = %+v", waits["X"])
	}
	if waits["IS"].Count != 1 {
		t.Fatalf("IS waits = %+v", waits["IS"])
	}
	if p.Wall() <= 0 {
		t.Fatal("Finish left zero wall time")
	}
	top := p.TopCosts()
	for _, frag := range []string{"visited=1", "wal_bytes=36", "versions=3", "lock_wait=3/"} {
		if !strings.Contains(top, frag) {
			t.Fatalf("TopCosts %q lacks %q", top, frag)
		}
	}
	rep := p.Report()
	for _, frag := range []string{"profile test", "traversal: 1 objects visited", "wal: 2 appends", "mvcc: 3 versions walked", "locks: 3 waits"} {
		if !strings.Contains(rep, frag) {
			t.Fatalf("Report %q lacks %q", rep, frag)
		}
	}
}

func TestProfCtxNil(t *testing.T) {
	var p *ProfCtx
	p.WALAppend(1)
	p.LockWait("X", time.Second)
	p.ObjectVisited()
	p.CacheHit()
	p.CacheMiss()
	p.VersionsWalked(1)
	p.Finish()
	p.Span("x")()
	if p.Wall() != 0 || p.Counts() != (ProfCounts{}) || p.LockWaits() != nil || p.Spans() != nil {
		t.Fatal("nil ProfCtx recorded state")
	}
	if p.TopCosts() != "" {
		t.Fatal("nil TopCosts non-empty")
	}
}

func TestProfCtxSpans(t *testing.T) {
	p := NewProfCtx("spans")
	end := p.Span("outer")
	inner := p.Span("inner")
	inner()
	end()
	spans := p.Spans()
	if len(spans) != 2 || spans[0].Name != "outer" || spans[0].Depth != 0 || spans[1].Name != "inner" || spans[1].Depth != 1 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestProfCtxConcurrent(t *testing.T) {
	p := NewProfCtx("conc")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.ObjectVisited()
				p.VersionsWalked(1)
				p.LockWait("S", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	c := p.Counts()
	if c.ObjectsVisited != workers*per || c.VersionsWalked != workers*per || c.LockWaits != workers*per {
		t.Fatalf("lost updates: %+v", c)
	}
	if p.LockWaits()["S"].Count != workers*per {
		t.Fatalf("lost lock waits: %+v", p.LockWaits())
	}
}

func TestFlightRecorderBasics(t *testing.T) {
	f := NewRegistry().Recorder()
	if len(f.Records()) != 0 {
		t.Fatal("fresh recorder non-empty")
	}
	f.Op("op-a", "1:1", time.Now(), time.Millisecond, "ok", "visited=3")
	f.Op("op-b", "1:2", time.Now(), 2*time.Millisecond, "err", "")
	recs := f.Records()
	if len(recs) != 2 || recs[0].Name != "op-a" || recs[1].Name != "op-b" {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("sequence numbers = %d, %d", recs[0].Seq, recs[1].Seq)
	}
	s := recs[1].String()
	if !strings.Contains(s, "op-b") || !strings.Contains(s, "!err") {
		t.Fatalf("String = %q", s)
	}
	if !strings.Contains(recs[0].String(), "[visited=3]") {
		t.Fatalf("String = %q", recs[0].String())
	}
	f.Clear()
	if len(f.Records()) != 0 {
		t.Fatal("Clear left records")
	}
	// Sequence numbers keep increasing past a Clear.
	f.Op("op-c", "", time.Now(), 0, "ok", "")
	if got := f.Records(); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("post-clear records = %+v", got)
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	f := NewRegistry().Recorder()
	const total = RingCapacity + 86
	for i := 0; i < total; i++ {
		f.Op("op", fmt.Sprintf("root-%d", i), time.Now(), 0, "ok", "")
	}
	recs := f.Records()
	if len(recs) != RingCapacity {
		t.Fatalf("retained %d records, want %d", len(recs), RingCapacity)
	}
	// The oldest retained record is the one RingCapacity back from the
	// newest (sequence numbers start at 1); order is strictly increasing.
	if recs[0].Seq != total-RingCapacity+1 {
		t.Fatalf("oldest seq = %d, want %d", recs[0].Seq, total-RingCapacity+1)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("gap at %d: %d -> %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
	if recs[len(recs)-1].Detail != fmt.Sprintf("root-%d", total-1) {
		t.Fatalf("newest record = %+v", recs[len(recs)-1])
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewRegistry().Recorder()
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f.Op("op", fmt.Sprintf("w%d-%d", w, i), time.Now(), 0, "ok", "")
			}
		}(w)
	}
	// Concurrent readers must see consistent (complete) records.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			for _, r := range f.Records() {
				if r.Name == "" {
					t.Error("reader saw a torn record")
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if f.cur.Load() != writers*per {
		t.Fatalf("cursor = %d, want %d", f.cur.Load(), writers*per)
	}
	recs := f.Records()
	if len(recs) != RingCapacity {
		t.Fatalf("retained %d, want %d", len(recs), RingCapacity)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("records out of order at %d", i)
		}
	}
}

func TestFlightDumpAndThrottle(t *testing.T) {
	r := NewRegistry()
	f := r.Recorder()
	var buf bytes.Buffer
	f.SetWriter(&buf)
	f.Op("deadlock-op", "tx=1", time.Now(), 0, "deadlock", "lock_wait=1/1ms")
	if n := f.Dump("test reason"); n != 1 {
		t.Fatalf("Dump wrote %d records, want 1", n)
	}
	out := buf.String()
	if !strings.Contains(out, "flight dump (test reason): 1 records") || !strings.Contains(out, "deadlock-op") {
		t.Fatalf("dump output = %q", out)
	}
	if r.Counter("flight_dumps_total").Load() != 1 || r.Counter("flight_records_total").Load() != 1 {
		t.Fatal("dump/record counters not incremented")
	}
	// Throttle: first throttled dump goes through, the immediate second
	// is suppressed.
	if n := f.DumpThrottled("burst"); n < 0 {
		t.Fatal("first throttled dump suppressed")
	}
	if n := f.DumpThrottled("burst"); n != -1 {
		t.Fatalf("second throttled dump = %d, want -1", n)
	}
}

// TestFlightThrottledDumpPrintsOnlyNewRecords: two throttled dumps in a
// row print disjoint record sets — the second only what arrived after
// the first.
func TestFlightThrottledDumpPrintsOnlyNewRecords(t *testing.T) {
	f := NewRegistry().Recorder()
	var buf bytes.Buffer
	f.SetWriter(&buf)
	f.Op("old-a", "", time.Now(), 0, "ok", "")
	f.Op("old-b", "", time.Now(), 0, "ok", "")
	if n := f.DumpThrottled("first"); n != 2 {
		t.Fatalf("first dump wrote %d records, want 2", n)
	}
	f.Op("new-c", "", time.Now(), 0, "ok", "")
	buf.Reset()
	f.lastDump.Store(0) // lift the once-per-second throttle
	if n := f.DumpThrottled("second"); n != 1 {
		t.Fatalf("second dump wrote %d records, want 1", n)
	}
	out := buf.String()
	if !strings.Contains(out, "new-c") || strings.Contains(out, "old-a") || strings.Contains(out, "old-b") {
		t.Fatalf("second dump = %q, want only new-c", out)
	}
}

func TestFlightNil(t *testing.T) {
	var f *Recorder
	f.Op("x", "", time.Now(), 0, "", "")
	f.SetWriter(&bytes.Buffer{})
	f.Clear()
	f.ClearTrace()
	if f.Records() != nil || f.Dump("x") != 0 || f.DumpThrottled("x") != 0 {
		t.Fatal("nil recorder recorded state")
	}
	var r *Registry
	if r.Recorder() != nil {
		t.Fatal("nil registry returned a recorder")
	}
}

// TestSlowLogBreachTriggersFlightDump: an op at the threshold dumps the
// ring, and the dump holds that op; one below it does not dump.
func TestSlowLogBreachTriggersFlightDump(t *testing.T) {
	rec := NewRegistry().Recorder()
	var buf bytes.Buffer
	rec.SetWriter(&buf)
	rec.SetThreshold(time.Millisecond)
	rec.Op("fast-thing", "1:1", time.Now(), time.Microsecond, "ok", "")
	if buf.Len() != 0 {
		t.Fatalf("dump below the threshold: %q", buf.String())
	}
	rec.Op("slow-thing", "1:2", time.Now(), 50*time.Millisecond, "ok", "")
	out := buf.String()
	if !strings.Contains(out, "slow-op threshold breach") || !strings.Contains(out, "slow-thing 1:2 50ms") {
		t.Fatalf("no dump holding the breaching op; out = %q", out)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("q_ns", []int64{10, 20, 40, 80})
	// 100 observations uniform in (0, 10]: p50 ~ 5, all within bucket 0.
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i % 10))
	}
	if p50 := h.Quantile(0.50); p50 <= 0 || p50 > 10 {
		t.Fatalf("p50 = %d, want within (0, 10]", p50)
	}
	// Push mass into the top buckets; p99 must climb.
	for i := 0; i < 400; i++ {
		h.Observe(75)
	}
	if p99 := h.Quantile(0.99); p99 <= 40 || p99 > 80 {
		t.Fatalf("p99 = %d, want within (40, 80]", p99)
	}
	// Overflow bucket clamps to the top bound.
	for i := 0; i < 10000; i++ {
		h.Observe(1000)
	}
	if p99 := h.Quantile(0.99); p99 != 80 {
		t.Fatalf("overflow p99 = %d, want clamp to 80", p99)
	}
	// Degenerate inputs.
	empty := NewRegistry().Histogram("e_ns", []int64{10})
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile non-zero")
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile non-zero")
	}
}

func TestQuantilesInSnapshotAndExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", nil)
	for i := 0; i < 1000; i++ {
		h.Observe(int64(i) * 1000)
	}
	snap := r.Snapshot()
	hs := snap.Histograms["lat_ns"]
	if hs.P50 <= 0 || hs.P95 < hs.P50 || hs.P99 < hs.P95 {
		t.Fatalf("snapshot quantiles not ordered: p50=%d p95=%d p99=%d", hs.P50, hs.P95, hs.P99)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, q := range []string{`lat_ns_quantile{quantile="0.5"}`, `lat_ns_quantile{quantile="0.95"}`, `lat_ns_quantile{quantile="0.99"}`} {
		if !strings.Contains(out, q) {
			t.Fatalf("exposition lacks %q:\n%s", q, out)
		}
	}
	// The exposition with quantile lines must still parse.
	if _, err := ParseExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
}

// TestTracerConcurrentWriters: span writers and op writers share the
// ring while readers take all three views and a clear drops the spans.
func TestTracerConcurrentWriters(t *testing.T) {
	tr := NewRegistry().Recorder()
	tr.SetActive(true)
	tr.SetWriter(io.Discard) // every op breaches the threshold
	tr.SetThreshold(time.Nanosecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if w%2 == 0 {
					tr.Op("op", "", time.Now(), time.Second, "ok", "")
					continue
				}
				sp := tr.Begin(0, "op")
				tr.Point(sp, "mid")
				tr.End(sp, "op")
			}
		}(w)
	}
	// Concurrent reads while the ring wraps.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Records()
			tr.Trace()
			tr.Slow()
			if i == 25 {
				tr.ClearTrace()
			}
		}
	}()
	wg.Wait()
	<-done
	if got, want := tr.cur.Load(), uint64(4*500+4*3*500); got != want {
		t.Fatalf("cursor = %d, want %d", got, want)
	}
	all, evs, ops := tr.Records(), tr.Trace(), tr.Slow()
	if len(evs)+len(ops) != len(all) {
		t.Fatalf("views do not partition the ring: %d records, %d span records, %d op records", len(all), len(evs), len(ops))
	}
	for _, e := range evs {
		if e.Kind == KindOp {
			t.Fatalf("op record in the trace view: %v", e)
		}
	}
	for _, o := range ops {
		if o.Kind != KindOp {
			t.Fatalf("span record in the slow view: %v", o)
		}
	}
}
