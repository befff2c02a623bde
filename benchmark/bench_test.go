package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/sexpr"
	"repro/internal/uid"
)

// stream loads a small copy of the workload's dataset into an in-memory
// database, runs n generated ops through the interpreter, checks every
// reply against the model, and returns the hash of every program sent.
func stream(t *testing.T, s spec, seed int64, n int) [sha256.Size]byte {
	t.Helper()
	s.units, s.clients = 8, 1
	d, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	in := sexpr.NewInterp(d)
	for _, p := range schemaPrograms(s.shared) {
		if _, err := in.EvalString(p); err != nil {
			t.Fatalf("schema: %v", err)
		}
	}
	m := newModel(&s)
	g := newGen(&s, m, seed, 0)
	h := sha256.New()
	exec := func(o *op) {
		t.Helper()
		if strings.Contains(o.prog, s.name) {
			t.Fatalf("program names its workload: %.120s", o.prog)
		}
		h.Write([]byte(o.prog))
		h.Write([]byte{0})
		v, err := in.EvalString(o.prog)
		if err != nil {
			t.Fatalf("%s: %v\n%.300s", o.kind, err, o.prog)
		}
		res := parseRefs(v.String())
		if err := g.done(o, res); err != nil {
			t.Fatalf("%s: %v", o.kind, err)
		}
		if err := m.verify(o, res, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, phase := range g.loadPhases(s.units) {
		for _, o := range phase {
			g.bind(o)
			exec(o)
		}
	}
	for i := 0; i < n; i++ {
		exec(g.next())
	}
	if v := d.Engine().Integrity(); len(v) != 0 {
		t.Fatalf("integrity: %v", v)
	}
	docs, secs, paras := m.liveObjects()
	if got := d.Engine().Len(); got != docs+secs+paras {
		t.Fatalf("live objects: engine %d, model %d", got, docs+secs+paras)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSameSeedSameStream(t *testing.T) {
	for _, s := range specs {
		s := s
		t.Run(s.name, func(t *testing.T) {
			n := 200
			if s.name == "bulk_lifecycle" {
				n = 12 // each op builds and deletes 137 objects
			}
			a, b, c := stream(t, s, 7, n), stream(t, s, 7, n), stream(t, s, 8, n)
			if a != b {
				t.Error("same seed gave different op streams")
			}
			if a == c {
				t.Error("different seeds gave the same op stream")
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {95, 100}, {90, 90}, {1, 10}, {100, 100}, {51, 60}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

// Reference values from Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2.5, 3.5, 1.5, 9, 4}, 2, 6.5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPromDelta(t *testing.T) {
	const before = `# HELP wal_fsync_total fsyncs
# TYPE wal_fsync_total counter
wal_fsync_total 10
server_request_ns_bucket{le="1000"} 4
server_request_ns_sum 5000
server_request_ns_count 5
`
	const after = `wal_fsync_total 25
server_request_ns_bucket{le="1000"} 9
server_request_ns_sum 9000 1700000000000
server_request_ns_count 9
txn_commit_total 3
`
	b, err := parseProm(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(b, a)
	want := samples{"wal_fsync_total": 15, "server_request_ns_sum": 4000, "server_request_ns_count": 4, "txn_commit_total": 3}
	if len(d) != len(want) {
		t.Errorf("delta has %d samples, want %d: %v", len(d), len(want), d)
	}
	for k, v := range want {
		if d[k] != v {
			t.Errorf("delta[%s] = %v, want %v", k, d[k], v)
		}
	}
	if got := d.sum("wal_fsync_total", "txn_commit_total", "absent"); got != 18 {
		t.Errorf("sum = %v, want 18", got)
	}
	if _, err := parseProm(strings.NewReader("wal_fsync_total notanumber\n")); err == nil {
		t.Error("malformed sample accepted")
	}
}

func TestWireHelpers(t *testing.T) {
	got := parseRefs("[#4:12 #3:7] {#1:9}")
	want := []uid.UID{{Class: 4, Serial: 12}, {Class: 3, Serial: 7}, {Class: 1, Serial: 9}}
	if !sameSet(got, want) || got[0] != want[0] {
		t.Errorf("parseRefs = %v", got)
	}
	if id, ok := txIDOf("tx 157 requesting IXOS on class:Section: lock: deadlock detected, request aborted"); !ok || id != 157 {
		t.Errorf("txIDOf = %d, %v", id, ok)
	}
	if _, ok := txIDOf("no identity here"); ok {
		t.Error("txIDOf found an identity in a message without one")
	}
}

// BENCHMARK.json must list exactly the names, units, directions and
// bounds of the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q/%q, defined %q/%q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics listed, %d defined", kind, len(listed), len(defs))
		}
		for i, m := range listed {
			d := defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: %+v, defined %+v", kind, i, m, d)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the table's %v", kind, m.Name, d.bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
