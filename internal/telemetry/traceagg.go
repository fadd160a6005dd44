package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Quantile returns the q-quantile (0 <= q <= 1) of the durations using
// the nearest-rank method, the ceil(q·n)-th smallest sample; ds is not
// modified. Zero durations return 0.
func Quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// FleetReport aggregates many persisted trace documents into the
// fleet-level picture seranalyze prints: how jobs spent their time
// (queue wait vs. solve), which degradation tiers they landed on, and
// the per-phase cost breakdown across the whole corpus.
type FleetReport struct {
	Jobs     int
	ByStatus map[string]int
	ByTier   map[string]int
	Degraded int

	// Per-job duration collections (one entry per job that has the
	// corresponding span; Wall always has one per job).
	QueueWait []time.Duration
	Solve     []time.Duration
	Wall      []time.Duration

	// PhaseTotal/PhaseCount aggregate every span name in the corpus:
	// summed duration and instance count (merged spans contribute their
	// merge counts).
	PhaseTotal map[string]time.Duration
	PhaseCount map[string]int64

	// Totals folds every document: counter totals and gauge maxima
	// across the corpus.
	Totals RunStats

	// Slowest holds the highest-wall-clock documents, descending, so the
	// report can name the exact traces worth opening.
	Slowest []*TraceDoc
}

// AggregateTraces builds a FleetReport from trace documents; nil entries
// are skipped.
func AggregateTraces(docs []*TraceDoc) *FleetReport {
	r := &FleetReport{
		ByStatus:   map[string]int{},
		ByTier:     map[string]int{},
		PhaseTotal: map[string]time.Duration{},
		PhaseCount: map[string]int64{},
	}
	for _, d := range docs {
		if d == nil || d.Root == nil {
			continue
		}
		r.Jobs++
		if d.Status != "" {
			r.ByStatus[d.Status]++
		}
		if d.Tier != "" {
			r.ByTier[d.Tier]++
		}
		if d.Degraded {
			r.Degraded++
		}
		r.Wall = append(r.Wall, time.Duration(d.WallNS))
		if qw := d.Root.Find("queue-wait"); qw != nil {
			r.QueueWait = append(r.QueueWait, time.Duration(qw.DurNS))
		}
		if sv := d.Root.Find("solve"); sv != nil {
			r.Solve = append(r.Solve, time.Duration(sv.DurNS))
		}
		r.Totals.Add(d)
		d.Root.Walk(func(depth int, sp *Span) {
			if depth == 0 { // the root "job" span is the wall clock
				return
			}
			r.PhaseTotal[sp.Name] += time.Duration(sp.DurNS)
			n := sp.Count
			if n == 0 {
				n = 1
			}
			r.PhaseCount[sp.Name] += n
		})
		r.Slowest = append(r.Slowest, d)
	}
	sort.Slice(r.Slowest, func(i, j int) bool { return r.Slowest[i].WallNS > r.Slowest[j].WallNS })
	return r
}

// WriteReport renders the fleet report followed by the per-run phase
// table of each of the slowest documents; top bounds the phase,
// slowest-job and per-run tables (top <= 0 means 10).
func (r *FleetReport) WriteReport(w io.Writer, top int) error {
	if top <= 0 {
		top = 10
	}
	fmt.Fprintf(w, "fleet trace report: %d job(s)\n", r.Jobs)
	if len(r.ByStatus) > 0 {
		fmt.Fprintf(w, "  by status: %s\n", countTable(r.ByStatus))
	}
	if len(r.ByTier) > 0 {
		fmt.Fprintf(w, "  by tier:   %s (degraded %d/%d)\n", countTable(r.ByTier), r.Degraded, r.Jobs)
	}
	fmt.Fprintf(w, "\n  latency          p50          p95          p99          max\n")
	writeQuantileRow(w, "wall", r.Wall)
	writeQuantileRow(w, "queue-wait", r.QueueWait)
	writeQuantileRow(w, "solve", r.Solve)

	if len(r.PhaseTotal) > 0 {
		type row struct {
			name  string
			total time.Duration
			count int64
		}
		rows := make([]row, 0, len(r.PhaseTotal))
		for name, total := range r.PhaseTotal {
			rows = append(rows, row{name, total, r.PhaseCount[name]})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].total > rows[j].total })
		if len(rows) > top {
			rows = rows[:top]
		}
		fmt.Fprintf(w, "\n  phase breakdown (total across jobs, top %d)\n", len(rows))
		for _, rw := range rows {
			fmt.Fprintf(w, "    %-24s %12v  ×%d\n", rw.name, rw.total.Round(time.Microsecond), rw.count)
		}
	}

	writeTotals(w, "counters (total across jobs)", counterNames[:], r.Totals.Counters[:])
	writeTotals(w, "gauges (max across jobs)", gaugeNames[:], r.Totals.Gauges[:])

	slowest := r.Slowest[:min(len(r.Slowest), top)]
	if len(slowest) > 0 {
		fmt.Fprintf(w, "\n  slowest jobs (top %d)\n", len(slowest))
		for _, d := range slowest {
			fmt.Fprintf(w, "    %12v  %-12s tier=%-22s trace=%s\n",
				time.Duration(d.WallNS).Round(time.Millisecond), d.Name, orDash(d.Tier), d.TraceID)
		}
		fmt.Fprintln(w)
	}
	for _, d := range slowest {
		if err := Fold(d).WriteReport(w, d.Name); err != nil {
			return err
		}
	}
	return nil
}

// writeTotals prints the non-zero values of one enum-indexed table.
func writeTotals(w io.Writer, title string, names []string, vals []int64) {
	header := false
	for i, v := range vals {
		if v == 0 {
			continue
		}
		if !header {
			fmt.Fprintf(w, "\n  %s\n", title)
			header = true
		}
		fmt.Fprintf(w, "    %-24s %12d\n", names[i], v)
	}
}

func writeQuantileRow(w io.Writer, name string, ds []time.Duration) {
	if len(ds) == 0 {
		fmt.Fprintf(w, "  %-12s %12s\n", name, "-")
		return
	}
	fmt.Fprintf(w, "  %-12s %12v %12v %12v %12v\n", name,
		Quantile(ds, 0.50).Round(time.Microsecond),
		Quantile(ds, 0.95).Round(time.Microsecond),
		Quantile(ds, 0.99).Round(time.Microsecond),
		Quantile(ds, 1.0).Round(time.Microsecond))
}

func countTable(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// LoadTraceDocs reads trace documents from a directory (one document per
// file, subdirectories ignored, as a serretimed data dir's traces/
// holds them) or a file (one document per line, blank lines skipped, as
// serbench -trace writes them). Undecodable documents do not fail the
// read; skipped counts them.
func LoadTraceDocs(path string) (docs []*TraceDoc, skipped int, err error) {
	var blobs [][]byte
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	if fi.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, 0, err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			b, err := os.ReadFile(filepath.Join(path, e.Name()))
			if err != nil {
				return nil, 0, err
			}
			blobs = append(blobs, b)
		}
	} else {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(bytes.TrimSpace(line)) > 0 {
				blobs = append(blobs, line)
			}
		}
	}
	for _, b := range blobs {
		doc, err := DecodeTraceDoc(b)
		if err != nil {
			skipped++
			continue
		}
		docs = append(docs, doc)
	}
	return docs, skipped, nil
}
