package core

import (
	"context"
	"math/rand"
	"testing"

	"serretime/internal/forest"
)

// forestEngine adapts the paper's weighted regular forest (Section IV) to
// the engine interface. Minimize never builds it: tests set
// Options.newEngine to newForestEngine to run Algorithm 1 on the forest
// as a reference for the closure engine.
type forestEngine struct {
	f *forest.Forest
}

func newForestEngine(n int, gains []int64) (engine, error) {
	f, err := forest.New(n, gains)
	if err != nil {
		return nil, err
	}
	return &forestEngine{f: f}, nil
}

func (e *forestEngine) PositiveSet() ([]int32, []bool) { return e.f.PositiveSet() }

// PositiveSetFast: the forest maintains its trees incrementally and its
// set is always authoritative.
func (e *forestEngine) PositiveSetFast() ([]int32, []bool, bool) {
	m, mask := e.f.PositiveSet()
	return m, mask, true
}

func (e *forestEngine) Weight(v int32) int32 { return e.f.Weight(v) }

func (e *forestEngine) SetWeight(q int32, w int32) error {
	if e.f.Weight(q) == w {
		return nil
	}
	if !e.f.IsSingleton(q) {
		e.f.Break(q) // Figure 3: BreakTree before the weight update
	}
	return e.f.SetWeight(q, w)
}

func (e *forestEngine) AddConstraint(p, q int32) error { return e.f.Link(p, q) }
func (e *forestEngine) Freeze(v int32)                 { e.f.Freeze(v) }
func (e *forestEngine) Frozen(v int32) bool            { return e.f.Frozen(v) }

// TestForestEngineNearExact quantifies the paper's weighted-regular-forest
// engine against the exact LP optimum: the regularity rules reconstructed
// from the paper's sketch should match on the overwhelming majority of
// random instances (the closure engine matches on all, see
// TestPropertyMinObsMatchesExact).
func TestForestEngineNearExact(t *testing.T) {
	match, total := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, gains, obsInt, phi := randomInstance(rng, 3+rng.Intn(18))
		if g.Check() != nil {
			continue
		}
		fe, err := Minimize(context.Background(), g, gains, obsInt, Options{Phi: phi, Ts: 0, Th: 2, newEngine: newForestEngine})
		if err != nil {
			t.Fatalf("seed %d: forest engine error: %v", seed, err)
		}
		ex, err := MinObsExact(g, gains, obsInt, phi, 0, true)
		if err != nil {
			continue
		}
		total++
		if fe.Objective == ex.Objective {
			match++
		} else if fe.Objective < ex.Objective {
			t.Fatalf("seed %d: forest beat the exact optimum (%d < %d)", seed, fe.Objective, ex.Objective)
		}
	}
	if total == 0 {
		t.Fatal("no instances")
	}
	if rate := float64(match) / float64(total); rate < 0.95 {
		t.Fatalf("forest engine matched exact on only %d/%d instances", match, total)
	}
}

// TestEnginesAgreeOnMinObsWin cross-checks the two engines on the full
// MinObsWin problem: both must produce legal results satisfying the
// constraints, with the closure engine at least as good.
func TestEnginesAgreeOnMinObsWin(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, gains, obsInt, phi := randomInstance(rng, 3+rng.Intn(15))
		if g.Check() != nil {
			continue
		}
		opt := Options{Phi: phi, Ts: 0, Th: 2, Rmin: g.MinDelay(), ELWConstraints: true}
		cl, err := Minimize(context.Background(), g, gains, obsInt, opt)
		if err != nil {
			t.Fatalf("seed %d: closure: %v", seed, err)
		}
		opt.newEngine = newForestEngine
		fo, err := Minimize(context.Background(), g, gains, obsInt, opt)
		if err != nil {
			t.Fatalf("seed %d: forest: %v", seed, err)
		}
		if err := g.CheckLegal(cl.R); err != nil {
			t.Fatalf("seed %d: closure illegal: %v", seed, err)
		}
		if err := g.CheckLegal(fo.R); err != nil {
			t.Fatalf("seed %d: forest illegal: %v", seed, err)
		}
		if cl.Objective > fo.Objective {
			t.Errorf("seed %d: closure (%d) worse than forest (%d)", seed, cl.Objective, fo.Objective)
		}
	}
}

// TestBatchMatchesSingle verifies that batching violation repairs reaches
// the same objective as the verbatim one-repair-per-iteration Algorithm 1.
func TestBatchMatchesSingle(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, gains, obsInt, phi := randomInstance(rng, 3+rng.Intn(15))
		if g.Check() != nil {
			continue
		}
		opt := Options{Phi: phi, Ts: 0, Th: 2, Rmin: g.MinDelay(), ELWConstraints: true}
		batch, err := Minimize(context.Background(), g, gains, obsInt, opt)
		if err != nil {
			t.Fatalf("seed %d: batch: %v", seed, err)
		}
		opt.SingleViolation = true
		single, err := Minimize(context.Background(), g, gains, obsInt, opt)
		if err != nil {
			t.Fatalf("seed %d: single: %v", seed, err)
		}
		if batch.Objective != single.Objective {
			t.Errorf("seed %d: batch %d != single %d", seed, batch.Objective, single.Objective)
		}
		if single.Steps < batch.Steps {
			t.Errorf("seed %d: single took fewer steps (%d < %d)", seed, single.Steps, batch.Steps)
		}
	}
}

// TestCheckOrderInvariance: the violation check order changes the
// discovery path but not the fixpoint objective.
func TestCheckOrderInvariance(t *testing.T) {
	orders := [][]Kind{
		{KindP0, KindP2, KindP1},
		{KindP2, KindP0, KindP1}, // the paper's published order
		{KindP1, KindP2, KindP0},
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, gains, obsInt, phi := randomInstance(rng, 3+rng.Intn(15))
		if g.Check() != nil {
			continue
		}
		var objs []int64
		for _, order := range orders {
			res, err := Minimize(context.Background(), g, gains, obsInt, Options{
				Phi: phi, Ts: 0, Th: 2, Rmin: g.MinDelay(),
				ELWConstraints: true, CheckOrder: order,
			})
			if err != nil {
				t.Fatalf("seed %d order %v: %v", seed, order, err)
			}
			objs = append(objs, res.Objective)
		}
		for i := 1; i < len(objs); i++ {
			if objs[i] != objs[0] {
				t.Errorf("seed %d: order %v objective %d != %d", seed, orders[i], objs[i], objs[0])
			}
		}
	}
}

// TestClosureEngineCachedSet drives one closure engine with random
// constraints, weight updates, freezes and exact cuts, and checks the sets
// PositiveSetFast offers between them: each member listed once and exactly
// the masked vertices, no frozen member, positive gain, and closed under
// every constraint added so far.
func TestClosureEngineCachedSet(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		gains := make([]int64, n)
		for v := range gains {
			gains[v] = int64(rng.Intn(21) - 8)
		}
		e := newClosureEngine(n, gains)
		var arcs [][2]int32
		e.PositiveSet()
		for step := 0; step < 200; step++ {
			switch r := rng.Intn(20); {
			case r < 12:
				p, q := int32(rng.Intn(n)), int32(rng.Intn(n))
				if p != q {
					if err := e.AddConstraint(p, q); err != nil {
						t.Fatal(err)
					}
					arcs = append(arcs, [2]int32{p, q})
				}
			case r < 16:
				if err := e.SetWeight(int32(rng.Intn(n)), int32(1+rng.Intn(4))); err != nil {
					t.Fatal(err)
				}
			case r < 18:
				e.Freeze(int32(rng.Intn(n)))
			default:
				e.PositiveSet()
			}
			if rng.Intn(3) != 0 {
				continue // let several updates pile up, as a batch of repairs does
			}
			members, mask, _ := e.PositiveSetFast()
			if mask == nil {
				continue
			}
			listed := make([]bool, n)
			var total int64
			for _, m := range members {
				if listed[m] || !mask[m] || e.frozen[m] {
					t.Fatalf("seed %d step %d: member %d listed twice, unmasked or frozen", seed, step, m)
				}
				listed[m] = true
				total += gains[m] * int64(e.w[m])
			}
			for v := range mask {
				if mask[v] && !listed[v] {
					t.Fatalf("seed %d step %d: masked vertex %d not listed", seed, step, v)
				}
			}
			if total <= 0 {
				t.Fatalf("seed %d step %d: cached set has gain %d", seed, step, total)
			}
			for _, a := range arcs {
				if mask[a[0]] && !mask[a[1]] {
					t.Fatalf("seed %d step %d: set holds %d but not %d, which it forces", seed, step, a[0], a[1])
				}
			}
		}
	}
}
