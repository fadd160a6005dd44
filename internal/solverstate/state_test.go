package solverstate_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/guard"
	"serretime/internal/solverstate"
)

// randomProblem builds a random synchronous graph (same shape as the core
// package's property-test instances: layered DAG plus feedback registers,
// no dangling cones) with random integer edge observabilities and label
// parameters wide enough that windows exist.
func randomProblem(rng *rand.Rand, n int) (*graph.Graph, []int64, elw.Params) {
	b := graph.NewBuilder()
	vs := make([]graph.VertexID, n)
	for i := 0; i < n; i++ {
		vs[i] = b.AddVertex("v", 1+float64(rng.Intn(4)))
	}
	b.AddEdge(graph.Host, vs[0], int32(rng.Intn(2)))
	for i := 1; i < n; i++ {
		b.AddEdge(vs[rng.Intn(i)], vs[i], int32(rng.Intn(3)))
		if rng.Intn(2) == 0 {
			b.AddEdge(vs[rng.Intn(i)], vs[i], int32(rng.Intn(2)))
		}
		if rng.Intn(4) == 0 {
			b.AddEdge(vs[i], vs[rng.Intn(i+1)], 1+int32(rng.Intn(2)))
		}
	}
	b.AddEdge(vs[n-1], graph.Host, int32(rng.Intn(2)))
	b.AddEdge(vs[rng.Intn(n)], graph.Host, 0)
	g := b.Build()
	// No dangling cones: every gate must reach a latch point.
	bb := graph.NewBuilder()
	for v := 1; v < g.NumVertices(); v++ {
		bb.AddVertex(g.Name(graph.VertexID(v)), g.Delay(graph.VertexID(v)))
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		bb.AddEdge(ed.From, ed.To, ed.W)
	}
	for v := 1; v < g.NumVertices(); v++ {
		if len(g.Out(graph.VertexID(v))) == 0 {
			bb.AddEdge(graph.VertexID(v), graph.Host, 0)
		}
	}
	g = bb.Build()
	obsInt := make([]int64, g.NumEdges())
	for e := range obsInt {
		obsInt[e] = int64(rng.Intn(1000))
	}
	_, crit := g.ArrivalTimes(graph.NewRetiming(g))
	return g, obsInt, elw.Params{Phi: crit * (1 + rng.Float64()), Ts: 0, Th: 2}
}

// objectiveScan recomputes Σ obsInt·w_r from scratch.
func objectiveScan(g *graph.Graph, r graph.Retiming, obsInt []int64) int64 {
	var obj int64
	for e := 0; e < g.NumEdges(); e++ {
		obj += obsInt[e] * int64(g.WR(graph.EdgeID(e), r))
	}
	return obj
}

// randomMove picks a random subset of gates to move forward by one
// register (the shape of every Algorithm 1 tentative move).
func randomMove(rng *rand.Rand, g *graph.Graph) []int32 {
	var members []int32
	for v := 1; v < g.NumVertices(); v++ {
		if rng.Intn(3) == 0 {
			members = append(members, int32(v))
		}
	}
	if len(members) == 0 {
		members = append(members, int32(1+rng.Intn(g.NumVertices()-1)))
	}
	return members
}

func one(int32) int32 { return 1 }

// TestStateMatchesOracles drives random move sequences and checks, after
// every Begin, that the incremental objective and negative-edge list and
// the transaction's L/R labels all agree with from-scratch
// recomputations, and that rollbacks restore the committed state
// bit-exactly.
func TestStateMatchesOracles(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, obsInt, params := randomProblem(rng, 4+rng.Intn(20))
		r0 := graph.NewRetiming(g)
		st := solverstate.New(g, r0, solverstate.Config{Params: params, ObsInt: obsInt})
		shadow := r0.Clone() // committed retiming maintained independently
		for step := 0; step < 40; step++ {
			members := randomMove(rng, g)
			st.Begin(members, one)
			tent := shadow.Clone()
			for _, v := range members {
				tent[v]--
			}
			if got, want := st.Objective(), objectiveScan(g, tent, obsInt); got != want {
				t.Fatalf("seed %d step %d: tentative objective %d, scan %d", seed, step, got, want)
			}
			// Negative-edge list vs a full scan in EdgeID order.
			var wantNeg []graph.EdgeID
			for e := 0; e < g.NumEdges(); e++ {
				if g.WR(graph.EdgeID(e), tent) < 0 {
					wantNeg = append(wantNeg, graph.EdgeID(e))
				}
			}
			gotNeg := st.NegativeTentativeEdges()
			if len(gotNeg) != len(wantNeg) {
				t.Fatalf("seed %d step %d: negatives %v, scan %v", seed, step, gotNeg, wantNeg)
			}
			for i := range gotNeg {
				if gotNeg[i] != wantNeg[i] {
					t.Fatalf("seed %d step %d: negatives %v, scan %v", seed, step, gotNeg, wantNeg)
				}
			}
			legal := len(gotNeg) == 0
			if legal || rng.Intn(2) == 0 {
				// The P1'/P2' path: labels of the tentative state.
				lab := st.Labels()
				want := elw.ComputeLabels(g, tent, params, nil)
				if v, diff := lab.FirstDiff(want); diff {
					t.Fatalf("seed %d step %d: labels diverge at v%d", seed, step, v)
				}
			}
			// Only commit legal states (New's contract; the solver checks
			// P0 before committing for the same reason).
			if legal && rng.Intn(2) == 0 {
				st.Commit()
				shadow = tent
			} else {
				st.Rollback()
			}
			if got, want := st.CommittedObjective(), objectiveScan(g, shadow, obsInt); got != want {
				t.Fatalf("seed %d step %d: committed objective %d, scan %d", seed, step, got, want)
			}
			for v := range shadow {
				if st.R()[v] != shadow[v] {
					t.Fatalf("seed %d step %d: r[%d] = %d, want %d", seed, step, v, st.R()[v], shadow[v])
				}
			}
			for e := 0; e < g.NumEdges(); e++ {
				if st.WR(graph.EdgeID(e)) != g.WR(graph.EdgeID(e), shadow) {
					t.Fatalf("seed %d step %d: wr[%d] stale after close", seed, step, e)
				}
			}
			// Closed-state labels must equal the committed oracle.
			lab := st.Labels()
			want := elw.ComputeLabels(g, shadow, params, nil)
			if v, diff := lab.FirstDiff(want); diff {
				t.Fatalf("seed %d step %d: committed labels diverge at v%d", seed, step, v)
			}
		}
	}
}

// TestRollbackRestoresLabelsBitwise snapshots the committed labels, runs a
// transaction that reads labels, rolls back, and compares every field.
func TestRollbackRestoresLabelsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, obsInt, params := randomProblem(rng, 16)
	r0 := graph.NewRetiming(g)
	st := solverstate.New(g, r0, solverstate.Config{Params: params, ObsInt: obsInt})
	for step := 0; step < 20; step++ {
		before := st.Labels()
		snap := before.Clone()
		st.Begin(randomMove(rng, g), one)
		st.Labels()
		st.Rollback()
		after := st.Labels()
		if v, diff := after.FirstDiff(snap); diff {
			t.Fatalf("step %d: rollback lost labels at v%d", step, v)
		}
	}
}

// TestLabelsFailpoint arms the solverstate.Labels failpoint and checks the
// panic surfaces as guard.ErrInternal through the guard harness — the
// path the degradation chain relies on.
func TestLabelsFailpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, obsInt, params := randomProblem(rng, 8)
	st := solverstate.New(g, graph.NewRetiming(g), solverstate.Config{Params: params, ObsInt: obsInt})
	guard.ArmFailpoint("solverstate.Labels")
	defer guard.DisarmFailpoint("solverstate.Labels")
	_, err := guard.Do(context.Background(), "test", func(context.Context) (*elw.Labels, error) {
		return st.Labels(), nil
	})
	if !errors.Is(err, guard.ErrInternal) {
		t.Fatalf("got %v, want guard.ErrInternal", err)
	}
}

// TestCommitDropsStaleLabels commits a weight-changing move without ever
// requesting labels; the cached pre-move labels must not survive.
func TestCommitDropsStaleLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, obsInt, params := randomProblem(rng, 12)
	r0 := graph.NewRetiming(g)
	st := solverstate.New(g, r0, solverstate.Config{Params: params, ObsInt: obsInt})
	// A closed-state read of the committed labels must not leak into
	// the blind commits below.
	st.Labels()
	shadow := r0.Clone()
	rng2 := rand.New(rand.NewSource(10))
	for step := 0; step < 30; step++ {
		members := randomMove(rng2, g)
		st.Begin(members, one) // P0-only path: no Labels call
		if len(st.NegativeTentativeEdges()) > 0 {
			st.Rollback()
			continue
		}
		st.Commit()
		for _, v := range members {
			shadow[v]--
		}
		lab := st.Labels()
		want := elw.ComputeLabels(g, shadow, params, nil)
		if v, diff := lab.FirstDiff(want); diff {
			t.Fatalf("step %d: stale labels survived a blind commit (v%d)", step, v)
		}
	}
}

// TestTxnStateMachine checks the protocol panics.
func TestTxnStateMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g, obsInt, params := randomProblem(rng, 6)
	st := solverstate.New(g, graph.NewRetiming(g), solverstate.Config{Params: params, ObsInt: obsInt})
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Commit-closed", st.Commit)
	mustPanic("Rollback-closed", st.Rollback)
	st.Begin([]int32{1}, one)
	mustPanic("Begin-open", func() { st.Begin([]int32{1}, one) })
	mustPanic("R-open", func() { st.R() })
	st.Rollback()
}
