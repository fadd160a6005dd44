package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minOpsForP90 is the smallest run that may report op_p90_ms: with
// nearest-rank percentiles, 100 operations leave 10 samples beyond p90.
const minOpsForP90 = 100

// opRecord is one timed operation as the workload process saw it.
type opRecord struct {
	// Kind is "solve", "submit", "delta", "close" or "open".
	Kind string `json:"kind"`
	// Input indexes the workload's netlists (solve, serve) or the delta
	// cycle (eco delta); Cycle counts eco session reopenings.
	Input int `json:"input"`
	Cycle int `json:"cycle,omitempty"`
	// LatNS is the operation's wall time.
	LatNS int64 `json:"lat_ns"`
	// Digest is the hex SHA-256 of the operation's result netlist (empty
	// for eco close).
	Digest   string `json:"digest,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	// Err is set when the operation failed in the workload process; the
	// harness adds output mismatches on top.
	Err string `json:"err,omitempty"`
	// Traced marks operations of the traced half of a --trace 1 run;
	// Extra holds their per-operation layer readings.
	Traced bool               `json:"traced,omitempty"`
	Extra  map[string]float64 `json:"extra,omitempty"`
}

// summary is the end-to-end view of one timed phase.
type summary struct {
	Attempted, Failed int
	P50MS, P90MS      float64
	OpsPerS           float64
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// summarize computes attempted/failed counts, latency percentiles and
// throughput over ops, which ran in elapsed wall time. A failed operation
// counts as infinitely slow, so failures can only push the percentiles
// up, and only successful operations count toward ops_per_s. It refuses
// runs too short for a p90 with ten samples beyond it.
func summarize(ops []opRecord, failed func(int) bool, elapsed time.Duration) (summary, error) {
	s := summary{Attempted: len(ops)}
	if len(ops) < minOpsForP90 {
		return s, fmt.Errorf("only %d operations completed; op_p90_ms needs at least %d", len(ops), minOpsForP90)
	}
	if elapsed <= 0 {
		return s, fmt.Errorf("timed phase has no duration")
	}
	lat := make([]float64, len(ops))
	for i, op := range ops {
		if failed(i) {
			s.Failed++
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = float64(op.LatNS) / 1e6
	}
	sort.Float64s(lat)
	s.P50MS = percentile(lat, 0.50)
	s.P90MS = percentile(lat, 0.90)
	s.OpsPerS = float64(s.Attempted-s.Failed) / elapsed.Seconds()
	return s, nil
}

// median returns the median of xs (mean of the middle pair for even
// lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
