package main

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// samples is one scrape of the server's /metrics: sample name -> value.
// Only unlabelled samples are kept (counters, gauges, and the _sum and
// _count of histograms); bucket lines carry a label set and are skipped —
// every per-layer ratio the benchmark reports is a delta of totals.
type samples map[string]float64

// parseProm reads Prometheus text exposition with the repository's own
// validating parser and keeps the unlabelled samples.
func parseProm(r io.Reader) (samples, error) {
	parsed, err := obs.ParseExposition(r)
	if err != nil {
		return nil, err
	}
	out := samples{}
	for _, s := range parsed {
		if len(s.Labels) == 0 {
			out[s.Name] = s.Value
		}
	}
	return out, nil
}

// delta returns after-before for every sample in after. A sample absent
// from before counts from zero: families appear at first use.
func delta(before, after samples) samples {
	out := make(samples, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds the named samples.
func (s samples) sum(names ...string) float64 {
	var t float64
	for _, n := range names {
		t += s[n]
	}
	return t
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

// scrape fetches and parses http://addr/metrics.
func scrape(addr string) (samples, error) {
	resp, err := scrapeClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %s", resp.Status)
	}
	return parseProm(resp.Body)
}
