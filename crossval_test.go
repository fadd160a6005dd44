package serretime

// Cross-validation of the analytical fast observability engine against
// the signature-based exact engine (ISSUE 9): on every testdata netlist
// the two engines must agree in *ranking* (Spearman rank correlation
// >= 0.9) — the retiming objectives consume observabilities through
// comparisons and weighted sums, so preserved ordering is what makes a
// fast estimate a usable routing tier — and stay close in absolute terms
// (MAE, reported in EXPERIMENTS.md). The determinism test pins the
// bit-identity contract of the level-sharded passes at the public
// options surface.
//
// Protocol. The rank comparison runs over the gates whose reference
// observability is nonzero, against an exact reference at 64 signature
// words (K = 4096 sampled trajectories):
//
//   - Gates, because that is the population the optimizer consumes:
//     ser.VertexObs forwards only gate observabilities into the retiming
//     objective; PIs/DFFs/POs never enter a comparison.
//   - Reference > 0, because a sampled reference cannot rank what it
//     cannot resolve: every gate below 1/K collapses into one huge tie
//     at the bottom and average-rank Spearman then scores the fast
//     engine's ordering of that tail against coin flips. Zero-estimate
//     gates also carry zero weight in the SER objective, so their
//     internal order is irrelevant downstream. The unrestricted rho is
//     still logged, and MAE is asserted over ALL nodes, so the known
//     failure mode — correlated masking the independence model cannot
//     see (DESIGN.md §16) — stays measured rather than hidden.
//
// Measured seed-to-seed reproducibility of the exact engine itself
// (words=64, gates): 0.990 on par2500, 0.981 on par6000 — the ceiling
// any estimator can reach against this reference.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/obs"
	"serretime/internal/sim"
)

var crossvalCircuits = []string{"s27", "pipeline4", "par2500", "par6000"}

// ranks assigns average ranks (ties share the mean of their positions),
// the standard Spearman treatment for the heavily tied obs values near
// 0 and 1.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			r[idx[k]] = avg
		}
		i = j
	}
	return r
}

// spearman is the Pearson correlation of the two rank vectors.
func spearman(a, b []float64) float64 {
	ra, rb := ranks(a), ranks(b)
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= float64(len(ra))
	mb /= float64(len(rb))
	var num, da, db float64
	for i := range ra {
		x, y := ra[i]-ma, rb[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

func TestFastCrossValidation(t *testing.T) {
	for _, name := range crossvalCircuits {
		t.Run(name, func(t *testing.T) {
			c, err := benchfmt.ParseFile("testdata/" + name + ".bench")
			if err != nil {
				t.Fatal(err)
			}
			csr := c.CSR()
			tr, err := sim.Run(context.Background(), c, sim.Config{Words: 64, Frames: 15, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			exact, err := obs.Compute(context.Background(), tr, obs.Options{})
			tr.Release()
			if err != nil {
				t.Fatal(err)
			}
			fast, err := obs.ComputeFast(context.Background(), c, 15, obs.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var mae, worst float64
			for i := range exact.Obs {
				d := math.Abs(exact.Obs[i] - fast.Obs[i])
				mae += d
				if d > worst {
					worst = d
				}
			}
			mae /= float64(len(exact.Obs))
			var gE, gF, rE, rF []float64
			for i := 0; i < csr.N; i++ {
				if csr.Kind[i] != circuit.KindGate {
					continue
				}
				gE = append(gE, exact.Obs[i])
				gF = append(gF, fast.Obs[i])
				if exact.Obs[i] > 0 {
					rE = append(rE, exact.Obs[i])
					rF = append(rF, fast.Obs[i])
				}
			}
			rho := spearman(rE, rF)
			t.Logf("%s: gates=%d resolved=%d spearman=%.4f spearman(all gates)=%.4f mae=%.4f max|err|=%.4f",
				name, len(gE), len(rE), rho, spearman(gE, gF), mae, worst)
			if rho < 0.9 {
				t.Errorf("%s: spearman %.4f < 0.9", name, rho)
			}
			if mae > 0.15 {
				t.Errorf("%s: MAE %.4f > 0.15", name, mae)
			}
		})
	}
}

// TestFastDeterminismAcrossWorkers drives the fast engine through the
// public analysis surface (ensureObs via Analyze) and checks the derived
// per-vertex observabilities are bit-identical for every worker count.
func TestFastDeterminismAcrossWorkers(t *testing.T) {
	d, err := Load("testdata/par2500.bench")
	if err != nil {
		t.Fatal(err)
	}
	obsFor := func(workers int) []float64 {
		if err := d.ensureObs(context.Background(), AnalysisOptions{Accuracy: AccuracyFast}, workers, nil); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(d.gateObs))
		copy(out, d.gateObs)
		// Invalidate the cache so the next worker count recomputes.
		d.obsOpt = AnalysisOptions{}
		d.gateObs = nil
		return out
	}
	base := obsFor(1)
	counts := []int{2, 3}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 3 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		got := obsFor(w)
		for i := range base {
			if math.Float64bits(got[i]) != math.Float64bits(base[i]) {
				t.Fatalf("workers=%d: gateObs[%d] = %x, want %x", w, i, math.Float64bits(got[i]), math.Float64bits(base[i]))
			}
		}
	}
}

// TestAccuracyJoinsObsCache pins the aliasing guarantee: switching only
// the accuracy must invalidate the in-process analysis cache and
// recompute, never reuse the other engine's numbers.
func TestAccuracyJoinsObsCache(t *testing.T) {
	d, err := Load("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ensureObs(context.Background(), AnalysisOptions{Accuracy: AccuracyExact}, 0, nil); err != nil {
		t.Fatal(err)
	}
	exact := make([]float64, len(d.gateObs))
	copy(exact, d.gateObs)
	if err := d.ensureObs(context.Background(), AnalysisOptions{Accuracy: AccuracyFast}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if d.obsOpt.Accuracy != AccuracyFast {
		t.Fatalf("cache key accuracy = %v, want fast", d.obsOpt.Accuracy)
	}
	same := true
	for i := range exact {
		if d.gateObs[i] != exact[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("fast request returned the cached exact analysis verbatim")
	}
	// And back: exact must not see fast's numbers either.
	if err := d.ensureObs(context.Background(), AnalysisOptions{Accuracy: AccuracyExact}, 0, nil); err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if d.gateObs[i] != exact[i] {
			t.Fatalf("exact recompute diverged at %d", i)
		}
	}
}

func TestAccuracyCanonicalKeys(t *testing.T) {
	ke := AnalysisOptions{}.CanonicalKey()
	kf := AnalysisOptions{Accuracy: AccuracyFast}.CanonicalKey()
	if ke == kf {
		t.Fatalf("fast and exact analyses share a canonical key %q", ke)
	}
	if kx := (AnalysisOptions{Accuracy: AccuracyExact}).CanonicalKey(); kx != ke {
		t.Fatalf("explicit exact key %q differs from default %q", kx, ke)
	}
	// The split must reach the service-level key so cached jobs never
	// alias across engines.
	re := RobustOptions{}.CanonicalKey()
	rf := RobustOptions{RetimeOptions: RetimeOptions{Analysis: AnalysisOptions{Accuracy: AccuracyFast}}}.CanonicalKey()
	if re == rf {
		t.Fatalf("fast and exact jobs share a service canonical key %q", re)
	}
}

func TestParseAccuracy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Accuracy
	}{{"", AccuracyExact}, {"exact", AccuracyExact}, {"fast", AccuracyFast}} {
		got, err := ParseAccuracy("test", tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseAccuracy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseAccuracy("test", "acurate"); err == nil {
		t.Fatal("bad accuracy accepted")
	}
	_ = fmt.Sprintf("%s", AccuracyFast) // Stringer is part of the wire contract
}
