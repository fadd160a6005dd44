package core

import (
	"context"
	"math/rand"
	"testing"
)

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
		fe, err := Minimize(context.Background(), g, gains, obsInt, Options{Phi: phi, Ts: 0, Th: 2, Engine: EngineForest})
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
		opt.Engine = EngineForest
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
