package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// PhaseStats aggregates one phase's spans.
type PhaseStats struct {
	// Count is the number of completed spans.
	Count int
	// Total is the summed span duration.
	Total time.Duration
	// Errs is the number of spans that ended with a non-nil error.
	Errs int
}

// RunStats is the flat summary of one or more trace documents:
// wall-clock, per-phase durations and counts, counter totals and gauge
// maxima. It is only ever computed from documents (Fold, Add), never
// recorded.
type RunStats struct {
	// Wall is the summed wall-clock of the folded documents.
	Wall time.Duration
	// Phases is indexed by Phase.
	Phases [NumPhases]PhaseStats
	// Counters is indexed by Counter.
	Counters [NumCounters]int64
	// Gauges is indexed by Gauge (maximum sampled value).
	Gauges [NumGauges]int64
}

// Fold summarizes one trace document.
func Fold(d *TraceDoc) *RunStats {
	s := &RunStats{}
	s.Add(d)
	return s
}

// Add folds d into s. Spans named after a Phase add their instance
// count, duration and errors to that phase; service spans (queue-wait,
// solve) and parallel shards (par:*) are not phases, so shards, which
// overlap in time, stay out of the per-level sums behind Coverage.
// Counters of every span add up and gauges keep the maximum.
func (s *RunStats) Add(d *TraceDoc) {
	if d == nil || d.Root == nil {
		return
	}
	s.Wall += time.Duration(d.WallNS)
	d.Root.Walk(func(_ int, sp *Span) {
		if p, ok := ParsePhase(sp.Name); ok {
			ps := &s.Phases[p]
			ps.Count += int(sp.Count)
			ps.Total += time.Duration(sp.DurNS)
			ps.Errs += sp.Errs
		}
		for name, v := range sp.Counters {
			if c, ok := ParseCounter(name); ok {
				s.Counters[c] += v
			}
		}
		for name, v := range sp.Gauges {
			if g, ok := ParseGauge(name); ok && v > s.Gauges[g] {
				s.Gauges[g] = v
			}
		}
	})
}

// Observed reports whether at least one span of p completed.
func (s *RunStats) Observed(p Phase) bool { return s.Phases[p].Count > 0 }

// Counter returns the total of c.
func (s *RunStats) Counter(c Counter) int64 { return s.Counters[c] }

// Gauge returns the maximum sampled value of g.
func (s *RunStats) Gauge(g Gauge) int64 { return s.Gauges[g] }

// LevelTotal sums the durations of all phases at the given hierarchy
// level. Same-level spans are disjoint, so the sum is comparable to Wall.
func (s *RunStats) LevelTotal(level int) time.Duration {
	var t time.Duration
	for p := Phase(0); p < NumPhases; p++ {
		if p.Level() == level {
			t += s.Phases[p].Total
		}
	}
	return t
}

// Coverage returns the shallowest hierarchy level with completed spans
// and the fraction of Wall its summed durations account for. A healthy
// trace covers ≥ 90% of wall-clock at its top level.
func (s *RunStats) Coverage() (level int, frac float64) {
	for l := 0; l <= 3; l++ {
		for p := Phase(0); p < NumPhases; p++ {
			if p.Level() == l && s.Phases[p].Count > 0 {
				if s.Wall > 0 {
					frac = float64(s.LevelTotal(l)) / float64(s.Wall)
				}
				return l, frac
			}
		}
	}
	return 0, 0
}

// PhaseBreakdown renders the level-1 pipeline stages as a compact
// "phase pct" list ordered by descending share, e.g.
// "minimize 62% analysis 21% init 9%". top caps the number of entries
// (0 = all). It returns "-" when no level-1 span completed.
func (s *RunStats) PhaseBreakdown(top int) string {
	type pt struct {
		p Phase
		d time.Duration
	}
	var ps []pt
	var total time.Duration
	for p := Phase(0); p < NumPhases; p++ {
		if p.Level() == 1 && s.Phases[p].Count > 0 {
			ps = append(ps, pt{p, s.Phases[p].Total})
			total += s.Phases[p].Total
		}
	}
	if len(ps) == 0 || total == 0 {
		return "-"
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].d != ps[j].d {
			return ps[i].d > ps[j].d
		}
		return ps[i].p < ps[j].p
	})
	if top > 0 && len(ps) > top {
		ps = ps[:top]
	}
	parts := make([]string, len(ps))
	for i, e := range ps {
		parts[i] = fmt.Sprintf("%s %.0f%%", e.p, 100*float64(e.d)/float64(total))
	}
	return strings.Join(parts, " ")
}

// WriteReport prints the per-run phase table: the coverage line, then
// calls, total, share of wall-clock and errors per phase, indented by
// level.
func (s *RunStats) WriteReport(w io.Writer, name string) error {
	if name == "" {
		name = "(unnamed)"
	}
	level, frac := s.Coverage()
	fmt.Fprintf(w, "== run %s ==\nwall-clock %v; level-%d phase coverage %.1f%%\n\n",
		name, s.Wall.Round(time.Microsecond), level, 100*frac)
	fmt.Fprintf(w, "%-26s %8s %14s %8s %6s\n", "phase", "calls", "total", "% wall", "errs")
	for p := Phase(0); p < NumPhases; p++ {
		ps := s.Phases[p]
		if ps.Count == 0 {
			continue
		}
		pct := 0.0
		if s.Wall > 0 {
			pct = 100 * float64(ps.Total) / float64(s.Wall)
		}
		fmt.Fprintf(w, "%-26s %8d %14v %7.1f%% %6d\n",
			strings.Repeat("  ", p.Level())+p.String(), ps.Count, ps.Total.Round(time.Microsecond), pct, ps.Errs)
	}
	_, err := fmt.Fprintln(w)
	return err
}
