package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkComponentsOfParallel-8   \t 100\t  88589654 ns/op\t 0.9500 plan-hit-rate")
	if !ok {
		t.Fatal("result line not recognized")
	}
	if r.Name != "BenchmarkComponentsOfParallel" || r.Procs != 8 || r.N != 100 {
		t.Fatalf("parsed %+v", r)
	}
	if r.NsPerOp != 88589654 || r.Metrics["plan-hit-rate"] != 0.95 {
		t.Fatalf("parsed %+v", r)
	}
	// Sub-benchmark names keep their path; the -N suffix still strips.
	r, ok = parseLine("BenchmarkComponentsOfDepth/depth=8-4 1000 123.5 ns/op 16 B/op 2 allocs/op")
	if !ok || r.Name != "BenchmarkComponentsOfDepth/depth=8" || r.Procs != 4 {
		t.Fatalf("parsed %+v, ok=%v", r, ok)
	}
	if r.Metrics["B/op"] != 16 || r.Metrics["allocs/op"] != 2 {
		t.Fatalf("parsed %+v", r)
	}
	// Registry-sourced units are promoted to typed fields, zero included.
	r, ok = parseLine("BenchmarkAncestorsOfCached-4 500 987 ns/op 0.8800 cache-hit-rate 0 pool-evictions")
	if !ok {
		t.Fatal("result line not recognized")
	}
	if r.CacheHitRate == nil || *r.CacheHitRate != 0.88 {
		t.Fatalf("cache hit rate not promoted: %+v", r)
	}
	if r.PoolEvictions == nil || *r.PoolEvictions != 0 {
		t.Fatalf("pool evictions not promoted: %+v", r)
	}
	if _, ok := r.Metrics["cache-hit-rate"]; ok {
		t.Fatalf("promoted unit still in Metrics: %+v", r)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"pool_evictions":0`) {
		t.Fatalf("zero pool_evictions dropped from JSON: %s", b)
	}
	// MVCC reader/writer isolation metrics are promoted too.
	r, ok = parseLine("BenchmarkLongScanWriterStall/snapshot-8 30 8559 ns/op 135978 writer-stall-ns")
	if !ok || r.WriterStallNs == nil || *r.WriterStallNs != 135978 {
		t.Fatalf("writer stall not promoted: %+v, ok=%v", r, ok)
	}
	r, ok = parseLine("BenchmarkSnapshotReadUnderWriters-8 50 1508553 ns/op 1508541 snapshot-read-ns")
	if !ok || r.SnapshotReadNs == nil || *r.SnapshotReadNs != 1508541 {
		t.Fatalf("snapshot read ns not promoted: %+v, ok=%v", r, ok)
	}
	if _, ok := r.Metrics["snapshot-read-ns"]; ok {
		t.Fatalf("promoted unit still in Metrics: %+v", r)
	}
	// Profiling cost metrics promote too; overhead may be negative noise.
	r, ok = parseLine("BenchmarkProfiledTraversal-8 100 380125 ns/op 145.6 flight-record-ns 3.2 profile-overhead-pct")
	if !ok || r.ProfileOverheadPct == nil || *r.ProfileOverheadPct != 3.2 {
		t.Fatalf("profile overhead not promoted: %+v, ok=%v", r, ok)
	}
	if r.FlightRecordNs == nil || *r.FlightRecordNs != 145.6 {
		t.Fatalf("flight record ns not promoted: %+v", r)
	}
	for _, bad := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro\t5.678s",
		"BenchmarkBroken notanumber 12 ns/op",
		"--- BENCH: BenchmarkX",
	} {
		if _, ok := parseLine(bad); ok {
			t.Errorf("%q parsed as a result", bad)
		}
	}
}

func TestRunPassthrough(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"BenchmarkA-2 50 200 ns/op",
		"PASS",
		"",
	}, "\n")
	var out, passthru bytes.Buffer
	if err := run(strings.NewReader(in), &out, &passthru); err != nil {
		t.Fatal(err)
	}
	var results []Result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Name != "BenchmarkA" || results[0].Procs != 2 {
		t.Fatalf("results = %+v", results)
	}
	if got := passthru.String(); !strings.Contains(got, "goos: linux") || !strings.Contains(got, "PASS") {
		t.Fatalf("passthru = %q", got)
	}
}
