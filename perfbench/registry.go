package main

import (
	"fmt"
	"sort"

	"smartfeat/internal/obs"
)

// registryCounts maps benchmark count names onto the program's obs.Default
// series. Counters only grow, so a pass's counts are deltas of these totals.
var registryCounts = []struct {
	name, family string
	filter       []string
}{
	{"fmgate.requests", "fm_requests_total", nil},
	{"fmgate.upstream_calls", "fm_upstream_calls_total", nil},
	{"fmgate.cache_hits", "fm_cache_hits_total", nil},
	{"fmgate.replayed", "fm_replayed_total", nil},
	{"lease.claims", "lease_claims_total", []string{"outcome", "won"}},
	{"grid.cells", "grid_cells_total", nil},
	{"serve.admitted", "serve_jobs_admitted_total", nil},
	{"serve.completed", "serve_jobs_completed_total", nil},
}

// counts is a set of named totals.
type counts map[string]float64

// snapshot reads the registry totals.
func snapshot() counts {
	c := counts{}
	for _, rc := range registryCounts {
		c[rc.name] = obs.Default.Total(rc.family, rc.filter...)
	}
	return c
}

// cellSeconds is the summed wall time of every grid cell executed so far:
// the grid_cell_seconds histogram's exact sum, never its buckets.
func cellSeconds() float64 {
	var sum float64
	for _, ms := range obs.Default.Snapshot() {
		if ms.Name == "grid_cell_seconds" {
			for _, pt := range ms.Series {
				sum += pt.Sum
			}
		}
	}
	return sum
}

// delta returns c minus before, key by key.
func (c counts) delta(before counts) map[string]float64 {
	out := make(map[string]float64, len(c))
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// sameCounts reports the first key whose value differs between a and b.
func sameCounts(a, b map[string]float64) error {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Errorf("count %s = %v, first run had %v", k, b[k], a[k])
		}
	}
	return nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
