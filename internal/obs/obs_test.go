package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	if r.Counter("c_total") != c {
		t.Fatal("get-or-create returned a new counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if g.Load() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Load())
	}
	h := r.Histogram("h_ns", []int64{10, 100})
	for _, v := range []int64{5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 555 {
		t.Fatalf("histogram count=%d sum=%d", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	if snap.Counters["c_total"] != 5 || snap.Gauges["g"] != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
	hs := snap.Histograms["h_ns"]
	if len(hs.Counts) != 3 || hs.Counts[0] != 1 || hs.Counts[1] != 1 || hs.Counts[2] != 1 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	r.Reset()
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset left non-zero instruments")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every method must be a no-op on the nil registry and the nil
	// instruments it hands out; this IS the disabled fast path.
	c := r.Counter("x")
	c.Inc()
	c.Add(2)
	c.Reset()
	if c.Load() != 0 {
		t.Fatal("nil counter loaded non-zero")
	}
	g := r.Gauge("x")
	g.Set(1)
	g.Add(1)
	if g.Load() != 0 {
		t.Fatal("nil gauge loaded non-zero")
	}
	h := r.Histogram("x", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded")
	}
	tr := r.Recorder()
	if tr.Active() {
		t.Fatal("nil recorder active")
	}
	tr.SetActive(true)
	if sp := tr.Begin(0, "x"); sp != 0 {
		t.Fatalf("nil recorder Begin = %d", sp)
	}
	tr.End(1, "x")
	tr.Point(0, "x")
	if tr.Trace() != nil {
		t.Fatal("nil recorder has span records")
	}
	tr.SetThreshold(time.Nanosecond)
	tr.Op("x", "", time.Now(), time.Second, "ok", "")
	if tr.Threshold() != 0 || tr.Slow() != nil {
		t.Fatal("nil recorder recorded")
	}
	r.Reset()
	r.ResetPrefix("x")
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("core_attach_total").Add(3)
	r.Gauge("pool_pages").Set(42)
	h := r.Histogram("core_delete_ns", nil)
	h.Observe(500)      // first bucket (<= 1000)
	h.Observe(5_000)    // second
	h.Observe(2e18 / 1) // beyond the last bound -> +Inf bucket
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	byKey := map[string]Sample{}
	for _, s := range samples {
		byKey[s.Name+"|"+s.Labels["le"]] = s
	}
	if byKey["core_attach_total|"].Value != 3 {
		t.Fatalf("counter sample missing: %v", samples)
	}
	if byKey["pool_pages|"].Value != 42 {
		t.Fatalf("gauge sample missing: %v", samples)
	}
	// Buckets are cumulative and end at +Inf == count.
	if byKey["core_delete_ns_bucket|1000"].Value != 1 {
		t.Fatalf("first bucket: %v", byKey["core_delete_ns_bucket|1000"])
	}
	if byKey["core_delete_ns_bucket|10000"].Value != 2 {
		t.Fatalf("second bucket: %v", byKey["core_delete_ns_bucket|10000"])
	}
	inf := byKey["core_delete_ns_bucket|+Inf"].Value
	if inf != 3 || byKey["core_delete_ns_count|"].Value != inf {
		t.Fatalf("+Inf bucket %v != count %v", inf, byKey["core_delete_ns_count|"].Value)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"1bad_name 3",
		"name_only",
		"metric{le=\"1\" 3",
		"metric{le=unquoted} 3",
		"metric{9bad=\"v\"} 3",
		"metric notanumber",
		"metric 1 2 3",
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
	ok := "# HELP x y\n# TYPE x counter\nx 1\nx{a=\"b\",c=\"d,e\"} 2.5 1700000000\n"
	samples, err := ParseExposition(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[1].Labels["c"] != "d,e" {
		t.Fatalf("samples = %+v", samples)
	}
}

func TestTracerNestingAndWrap(t *testing.T) {
	tr := NewRegistry().Recorder()
	if tr.Active() {
		t.Fatal("tracer active before SetActive")
	}
	if sp := tr.Begin(0, "off"); sp != 0 {
		t.Fatal("Begin returned a span while inactive")
	}
	tr.SetActive(true)
	root := tr.Begin(0, "outer")
	child := tr.Begin(root, "inner")
	tr.Point(child, "tick")
	tr.End(child, "inner")
	tr.End(root, "outer")
	evs := tr.Trace()
	if len(evs) != 5 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Span != root || evs[1].Parent != root || evs[1].Span != child {
		t.Fatalf("inner Begin not nested under outer: %+v", evs[1])
	}
	if evs[2].Parent != child || evs[2].Kind != KindPoint {
		t.Fatalf("point not attached to inner: %+v", evs[2])
	}
	if evs[3].Span != child || evs[3].Kind != KindEnd {
		t.Fatalf("inner End: %+v", evs[3])
	}
	if s := evs[0].String(); !strings.Contains(s, "B outer span=") {
		t.Fatalf("String = %q", s)
	}
	// Ring wrap: emit past capacity, then verify order and monotonic seq.
	for i := 0; i < RingCapacity+30; i++ {
		tr.Point(0, "spin")
	}
	evs = tr.Trace()
	if len(evs) != RingCapacity {
		t.Fatalf("ring holds %d events, want %d", len(evs), RingCapacity)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seq after wrap: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	tr.ClearTrace()
	if len(tr.Trace()) != 0 {
		t.Fatal("ClearTrace left events")
	}
}

func TestSlowLog(t *testing.T) {
	sl := NewRegistry().Recorder()
	sl.SetWriter(io.Discard)                              // each breach dumps
	sl.Op("ignored", "", time.Now(), time.Hour, "ok", "") // threshold 0 = slow view off
	if sl.Threshold() != 0 || len(sl.Slow()) != 0 {
		t.Fatal("slow view without a threshold")
	}
	sl.SetThreshold(time.Millisecond)
	if sl.Threshold() != time.Millisecond {
		t.Fatal("threshold not installed")
	}
	sl.Op("fast", "", time.Now(), 100*time.Microsecond, "ok", "")
	sl.Op("slow", "detail", time.Now(), 2*time.Millisecond, "ok", "")
	sl.SetActive(true)
	sp := sl.Begin(0, "span")
	sl.End(sp, "span")
	// Slow history is whatever the ring holds: the op recorded before the
	// threshold was set shows once it meets it.
	entries := sl.Slow()
	if len(entries) != 2 || entries[0].Name != "ignored" || entries[1].Name != "slow" || entries[1].Detail != "detail" {
		t.Fatalf("entries = %+v", entries)
	}
	for i := 0; i < RingCapacity; i++ {
		sl.Op("spin", fmt.Sprintf("%d", i), time.Now(), time.Second, "ok", "")
	}
	entries = sl.Slow()
	if len(entries) != RingCapacity || entries[len(entries)-1].Detail != fmt.Sprint(RingCapacity-1) {
		t.Fatalf("ring wrap: %d entries, last %q", len(entries), entries[len(entries)-1].Detail)
	}
	sl.Clear()
	if len(sl.Slow()) != 0 {
		t.Fatal("Clear left entries")
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("core_attach_total").Inc()
	r.Histogram("core_delete_ns", nil).Observe(123)
	r.Recorder().SetActive(true)
	sp := r.Recorder().Begin(0, "core.delete")
	r.Recorder().End(sp, "core.delete")
	r.Recorder().SetThreshold(time.Nanosecond)
	r.Recorder().Op("core.delete", "x", time.Now(), time.Second, "ok", "")
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String(), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples, err := ParseExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("served exposition does not parse: %v", err)
	}
	found := false
	for _, s := range samples {
		if s.Name == "core_attach_total" && s.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("core_attach_total missing from scrape:\n%s", body)
	}

	body, _ = get("/metrics.json")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["core_attach_total"] != 1 {
		t.Fatalf("json snapshot = %+v", snap)
	}

	body, _ = get("/trace?clear=1")
	var evs []Record
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Name != "core.delete" {
		t.Fatalf("trace = %+v", evs)
	}
	if n := len(r.Recorder().Trace()); n != 0 {
		t.Fatalf("?clear=1 left %d events", n)
	}

	body, _ = get("/slow")
	var entries []Record
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "core.delete" {
		t.Fatalf("slow = %+v", entries)
	}
}

// TestConcurrentReset drives writers, readers, and Reset together; run
// with -race this proves the reset path is race-free.
func TestConcurrentReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("spin_total")
	h := r.Histogram("spin_ns", nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(10)
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		r.Reset()
		r.Snapshot()
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
