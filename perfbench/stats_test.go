package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// synthetic builds n operations with latencies 1..n ms.
func synthetic(n int) []opRecord {
	ops := make([]opRecord, n)
	for i := range ops {
		ops[i] = opRecord{Kind: "solve", LatNS: int64(i+1) * int64(time.Millisecond)}
	}
	return ops
}

func never(int) bool { return false }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSummarizeLatencyAndThroughput(t *testing.T) {
	s, err := summarize(synthetic(200), never, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.P50MS != 100 || s.P90MS != 180 {
		t.Errorf("p50/p90 = %v/%v ms, want 100/180", s.P50MS, s.P90MS)
	}
	if s.OpsPerS != 20 || s.Attempted != 200 || s.Failed != 0 {
		t.Errorf("ops_per_s %v attempted %d failed %d, want 20/200/0", s.OpsPerS, s.Attempted, s.Failed)
	}
	// Exactly ten samples lie beyond p90 at the minimum run length.
	s, err = summarize(synthetic(minOpsForP90), never, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	beyond := 0
	for _, op := range synthetic(minOpsForP90) {
		if float64(op.LatNS)/1e6 > s.P90MS {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p90 with %d operations, want 10", beyond, minOpsForP90)
	}
}

func TestSummarizeCountsFailures(t *testing.T) {
	ops := synthetic(100)
	// The ten fastest operations fail: they count as attempted, not as
	// throughput, and as slower than any success.
	failed := func(i int) bool { return i < 10 }
	s, err := summarize(ops, failed, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.Attempted != 100 || s.Failed != 10 {
		t.Errorf("attempted %d failed %d, want 100/10", s.Attempted, s.Failed)
	}
	if s.OpsPerS != 9 {
		t.Errorf("ops_per_s = %v, want 9 (successes only)", s.OpsPerS)
	}
	if s.P50MS != 60 || s.P90MS != 100 {
		t.Errorf("p50/p90 = %v/%v, want 60/100: failures rank above every success", s.P50MS, s.P90MS)
	}
	// One more failure and p90 itself is a failure.
	s, err = summarize(ops, func(i int) bool { return i < 11 }, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(s.P90MS, 1) {
		t.Errorf("p90 = %v, want +Inf when 11%% of operations failed", s.P90MS)
	}
}

func TestSummarizeRefusesShortRuns(t *testing.T) {
	_, err := summarize(synthetic(minOpsForP90-1), never, time.Second)
	if err == nil || !strings.Contains(err.Error(), "op_p90_ms") {
		t.Fatalf("summarize(99 ops) error = %v, want a refusal naming op_p90_ms", err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// benchmarkSpec is the part of ../BENCHMARK.json the tests read.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func bound(t *testing.T, name string) float64 {
	t.Helper()
	for _, m := range loadSpec(t).EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %s", name)
	return 0
}

// TestSpecMatchesMetrics keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestSpecMatchesMetrics(t *testing.T) {
	s := loadSpec(t)
	check := func(kind string, spec []metricDef, code []metricDef) {
		if len(spec) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(spec), len(code))
			return
		}
		for i := range spec {
			if spec[i] != code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the benchmark prints %v", kind, i, spec[i], code[i])
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range s.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "solve,serve,eco" {
		t.Errorf("workloads = %v, want solve, serve, eco", names)
	}
}
