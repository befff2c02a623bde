// Command benchjson converts `go test -bench` text output on stdin into a
// JSON array on stdout, one element per benchmark result line. Non-result
// lines (goos/pkg headers, PASS/ok trailers, test logs) pass through to
// stderr so piping the bench run through this tool loses nothing:
//
//	go test -bench . -benchtime 100x . | go run ./cmd/benchjson > bench.json
//
// Each result captures the benchmark name, the GOMAXPROCS suffix (-N), the
// iteration count, ns/op, and any extra metrics (B/op, allocs/op, and
// custom b.ReportMetric units like plan-hit-rate).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. The cache hit rate, buffer-pool
// eviction count, fsyncs-per-commit ratio, the MVCC reader/writer
// isolation metrics (snapshot read latency, writer p99 stall), and the
// profiling costs (profile overhead percentage, flight-recorder append
// latency) — reported by the benches from the observability registry
// snapshot — are promoted to typed fields (pointers, so a true zero
// survives omitempty); any other custom units land in Metrics.
type Result struct {
	Name               string             `json:"name"`
	Procs              int                `json:"procs"`
	N                  int64              `json:"n"`
	NsPerOp            float64            `json:"ns_per_op"`
	CacheHitRate       *float64           `json:"cache_hit_rate,omitempty"`
	PoolEvictions      *float64           `json:"pool_evictions,omitempty"`
	FsyncsPerCommit    *float64           `json:"fsyncs_per_commit,omitempty"`
	SnapshotReadNs     *float64           `json:"snapshot_read_ns,omitempty"`
	WriterStallNs      *float64           `json:"writer_stall_ns,omitempty"`
	ProfileOverheadPct *float64           `json:"profile_overhead_pct,omitempty"`
	FlightRecordNs     *float64           `json:"flight_record_ns,omitempty"`
	Metrics            map[string]float64 `json:"metrics,omitempty"`
}

// parseLine parses a single `go test -bench` result line, e.g.
//
//	BenchmarkComponentsOfDepth/depth=8-4   1000   123456 ns/op   0.95 plan-hit-rate
//
// and reports ok=false for anything that is not a result line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	r := Result{Name: fields[0], Procs: 1}
	if i := strings.LastIndex(r.Name, "-"); i >= 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil && p > 0 {
			r.Procs = p
			r.Name = r.Name[:i]
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.N = n
	// The remainder alternates value/unit pairs.
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		unit := fields[i+1]
		switch unit {
		case "ns/op":
			r.NsPerOp = v
			sawNs = true
			continue
		case "cache-hit-rate":
			hr := v
			r.CacheHitRate = &hr
			continue
		case "pool-evictions":
			ev := v
			r.PoolEvictions = &ev
			continue
		case "fsyncs/commit":
			fc := v
			r.FsyncsPerCommit = &fc
			continue
		case "snapshot-read-ns":
			sr := v
			r.SnapshotReadNs = &sr
			continue
		case "writer-stall-ns":
			ws := v
			r.WriterStallNs = &ws
			continue
		case "profile-overhead-pct":
			po := v
			r.ProfileOverheadPct = &po
			continue
		case "flight-record-ns":
			fr := v
			r.FlightRecordNs = &fr
			continue
		}
		if r.Metrics == nil {
			r.Metrics = make(map[string]float64)
		}
		r.Metrics[unit] = v
	}
	if !sawNs {
		return Result{}, false
	}
	return r, true
}

// run filters in to out, parsing result lines and echoing the rest to
// passthru.
func run(in io.Reader, out, passthru io.Writer) error {
	results := []Result{} // marshal as [] rather than null when no lines match
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if r, ok := parseLine(line); ok {
			results = append(results, r)
			continue
		}
		fmt.Fprintln(passthru, line)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

func main() {
	if err := run(os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
