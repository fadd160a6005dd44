package solverstate_test

import (
	"math/rand"
	"testing"

	"serretime/internal/elw"
	"serretime/internal/gen"
	"serretime/internal/graph"
	"serretime/internal/solverstate"
)

// FuzzStateMoves drives randomized move sequences over synthetic gen
// circuits and asserts, for every tentative move and again after its
// commit or rollback, that the transactional labels and objective equal
// from-scratch recomputations.
// The fuzzer owns the circuit shape (gate/FF/connection counts) and the
// move randomness, so it explores circuits the fixed-seed property tests
// do not.
func FuzzStateMoves(f *testing.F) {
	f.Add(int64(1), int64(1))
	f.Add(int64(42), int64(7))
	f.Add(int64(-3), int64(999))
	f.Fuzz(func(t *testing.T, shapeSeed, moveSeed int64) {
		shape := rand.New(rand.NewSource(shapeSeed))
		spec := gen.Spec{
			Name:  "fuzz",
			Gates: 8 + shape.Intn(60),
			FFs:   1 + shape.Intn(20),
			Seed:  shapeSeed,
		}
		spec.Conns = spec.Gates + shape.Intn(2*spec.Gates)
		c, err := gen.Generate(spec)
		if err != nil {
			t.Skip(err) // inconsistent shape draw
		}
		g := graph.FromCircuit(c)
		r0 := graph.NewRetiming(g)
		_, crit, err := g.ArrivalTimes(r0)
		if err != nil {
			t.Fatal(err)
		}
		params := elw.Params{Phi: crit * 1.2, Ts: 0, Th: 2}
		obsInt := make([]int64, g.NumEdges())
		for e := range obsInt {
			obsInt[e] = int64(shape.Intn(256))
		}
		st, err := solverstate.New(g, r0, solverstate.Config{Params: params, ObsInt: obsInt})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(moveSeed))
		shadow := r0.Clone()
		for step := 0; step < 15; step++ {
			members := randomMove(rng, g)
			st.Begin(members, one)
			tent := shadow.Clone()
			for _, v := range members {
				tent[v]--
			}
			if got, want := st.Objective(), objectiveScan(g, tent, obsInt); got != want {
				t.Fatalf("step %d: tentative objective %d, scan %d", step, got, want)
			}
			lab, err := st.Labels()
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			want, err := elw.ComputeLabels(g, tent, params, nil)
			if err != nil {
				t.Fatalf("step %d: oracle: %v", step, err)
			}
			if v, diff := lab.FirstDiff(want); diff {
				t.Fatalf("step %d: tentative labels diverge at v%d", step, v)
			}
			if len(st.NegativeTentativeEdges()) == 0 && rng.Intn(2) == 0 {
				st.Commit()
				shadow = tent
			} else {
				st.Rollback()
			}
			lab, err = st.Labels()
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			want, err = elw.ComputeLabels(g, shadow, params, nil)
			if err != nil {
				t.Fatalf("step %d: oracle: %v", step, err)
			}
			if v, diff := lab.FirstDiff(want); diff {
				t.Fatalf("step %d: labels diverge at v%d after close", step, v)
			}
			if got, want := st.CommittedObjective(), objectiveScan(g, shadow, obsInt); got != want {
				t.Fatalf("step %d: committed objective %d, scan %d", step, got, want)
			}
		}
	})
}
