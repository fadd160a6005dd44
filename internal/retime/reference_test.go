package retime

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"serretime/internal/elw"
	"serretime/internal/gen"
	"serretime/internal/graph"
)

// The from-scratch Section V search the timing state replaced, kept as
// the differential reference: every relaxation pass recomputes its
// arrival times with graph.ArrivalTimes or reverseArrivals, every probe
// restarts from r = 0, and each search runs its winning probe again.

// reverseArrivals computes, for each vertex v, the maximum delay of a
// zero-weight path starting at v (inclusive of d(v)).
func reverseArrivals(g *graph.Graph, r graph.Retiming) ([]float64, error) {
	order, err := g.ZeroWeightTopo(r)
	if err != nil {
		return nil, err
	}
	rarr := make([]float64, g.NumVertices())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		a := 0.0
		for _, eid := range g.Out(v) {
			e := g.Edge(eid)
			if e.To == graph.Host || g.WR(eid, r) != 0 {
				continue
			}
			if rarr[e.To] > a {
				a = rarr[e.To]
			}
		}
		rarr[v] = a + g.Delay(v)
	}
	return rarr, nil
}

func refFeasPass(g *graph.Graph, r graph.Retiming, phi, ts float64) (violated, ok bool) {
	arr, _, err := g.ArrivalTimes(r)
	if err != nil {
		return false, false
	}
	for v := 1; v < g.NumVertices(); v++ {
		if arr[v] <= phi-ts+eps {
			continue
		}
		for _, oe := range g.Out(graph.VertexID(v)) {
			if g.Edge(oe).To == graph.Host && g.WR(oe, r) == 0 {
				return false, false
			}
		}
		r[v]++
		violated = true
	}
	return violated, true
}

func refFEAS(g *graph.Graph, phi, ts float64) (graph.Retiming, bool) {
	r := graph.NewRetiming(g)
	for it := 0; it < feasPassCap(g); it++ {
		violated, ok := refFeasPass(g, r, phi, ts)
		if !ok {
			return nil, false
		}
		if !violated {
			return r, true
		}
	}
	return nil, false
}

func refFEASBackward(g *graph.Graph, phi, ts float64) (graph.Retiming, bool) {
	r := graph.NewRetiming(g)
	for it := 0; it < feasPassCap(g); it++ {
		rarr, err := reverseArrivals(g, r)
		if err != nil {
			return nil, false
		}
		violated := false
		for v := 1; v < g.NumVertices(); v++ {
			if rarr[v] <= phi-ts+eps {
				continue
			}
			for _, ie := range g.In(graph.VertexID(v)) {
				if g.Edge(ie).From == graph.Host && g.WR(ie, r) == 0 {
					return nil, false
				}
			}
			r[v]--
			violated = true
		}
		if !violated {
			return r, true
		}
	}
	return nil, false
}

func refTryPeriod(g *graph.Graph, phi, ts float64) (graph.Retiming, bool) {
	if r, ok := refFEASBackward(g, phi, ts); ok {
		return r, ok
	}
	return refFEAS(g, phi, ts)
}

func refMinPeriod(g *graph.Graph, ts float64) (graph.Retiming, float64, error) {
	_, crit, err := g.ArrivalTimes(graph.NewRetiming(g))
	if err != nil {
		return nil, 0, err
	}
	hi, _ := searchGrid(snapUp(g.MaxDelay()+ts), snapUp(crit+ts), func(phi float64) (bool, error) {
		_, ok := refTryPeriod(g, phi, ts)
		return ok, nil
	})
	r, ok := refTryPeriod(g, hi, ts)
	if !ok {
		return graph.NewRetiming(g), snapUp(crit + ts), nil
	}
	return r, hi, nil
}

func refSetupHold(g *graph.Graph, phi, ts, th float64) (graph.Retiming, bool) {
	r, ok := refTryPeriod(g, phi, ts)
	if !ok {
		return nil, false
	}
	p := elw.Params{Phi: phi, Ts: ts, Th: th}
	bestHold, stall := 1<<30, 0
	for it := 0; it < 4*feasPassCap(g)+16; it++ {
		violated, ok := refFeasPass(g, r, phi, ts)
		if !ok {
			return nil, false
		}
		if violated {
			continue
		}
		lab, err := elw.ComputeLabels(g, r, p, nil)
		if err != nil {
			return nil, false
		}
		repaired, holdV := 0, 0
		for i := 0; i < g.NumEdges(); i++ {
			eid := graph.EdgeID(i)
			e := g.Edge(eid)
			if e.To == graph.Host || g.WR(eid, r) <= 0 || !lab.HasWindow[e.To] {
				continue
			}
			if lab.HoldSlack(g, p, eid) >= th-eps {
				continue
			}
			holdV++
			if refHoldRepair(g, r, eid) {
				repaired++
			}
		}
		if holdV == 0 {
			if g.CheckLegal(r) != nil {
				return nil, false
			}
			return r, true
		}
		if repaired == 0 {
			return nil, false
		}
		if holdV < bestHold {
			bestHold, stall = holdV, 0
		} else if stall++; stall > 50 {
			return nil, false
		}
	}
	return nil, false
}

func refHoldRepair(g *graph.Graph, r graph.Retiming, eid graph.EdgeID) bool {
	e := g.Edge(eid)
	if e.To != graph.Host {
		ok := true
		for _, ie := range g.In(e.To) {
			if g.WR(ie, r) < 1 {
				ok = false
				break
			}
		}
		if ok {
			r[e.To]--
			return true
		}
	}
	if e.From != graph.Host {
		ok := true
		for _, oe := range g.Out(e.From) {
			if g.WR(oe, r) < 1 {
				ok = false
				break
			}
		}
		if ok {
			r[e.From]++
			return true
		}
	}
	return false
}

func refMinPeriodSetupHold(g *graph.Graph, ts, th float64) (graph.Retiming, float64, bool) {
	_, crit, err := g.ArrivalTimes(graph.NewRetiming(g))
	if err != nil {
		return nil, 0, false
	}
	fits := func(phi float64) (bool, error) {
		_, ok := refSetupHold(g, phi, ts, th)
		return ok, nil
	}
	lo := snapUp(g.MaxDelay() + ts)
	hi := snapUp(crit + ts)
	if ok, _ := fits(hi); !ok {
		hi2 := snapUp(hi * 1.5)
		if ok, _ := fits(hi2); !ok {
			return nil, 0, false
		}
		lo, hi = hi+grid, hi2
	}
	hi, _ = searchGrid(lo, hi, fits)
	r, ok := refSetupHold(g, hi, ts, th)
	return r, hi, ok
}

func refInitialize(g *graph.Graph, o Options) (*Init, error) {
	init := &Init{}
	if r, phi, ok := refMinPeriodSetupHold(g, o.Ts, o.Th); ok {
		init.R, init.PhiMin, init.SetupHoldOK = r, phi, true
		init.Phi = snapUp(phi * (1 + o.Epsilon))
		p := elw.Params{Phi: init.Phi, Ts: o.Ts, Th: o.Th}
		lab, err := elw.ComputeLabels(g, r, p, nil)
		if err != nil {
			return nil, err
		}
		if slack, found := lab.MinHoldSlack(g, r, p); found {
			init.Rmin = slack
		} else {
			init.Rmin = g.MinDelay()
		}
		return init, nil
	}
	r, phi, err := refMinPeriod(g, o.Ts)
	if err != nil {
		return nil, err
	}
	init.R, init.PhiMin = r, phi
	init.Phi = snapUp(phi * (1 + o.Epsilon))
	init.Rmin = g.MinDelay()
	return init, nil
}

// referencePhis are the fixed probe periods of the differential tests.
var referencePhis = []float64{1, 2, 3, 4.5, 6, 9}

// checkAgainstReference compares every search entry point with its
// from-scratch reference on g: FEAS, FEASBackward and SetupHold at each
// of phis, then MinPeriod and Initialize.
func checkAgainstReference(t *testing.T, name string, g *graph.Graph, phis []float64, o Options) {
	t.Helper()
	ctx := context.Background()
	sameR := func(what string, phi float64, got, want graph.Retiming, gotOK, wantOK bool, err error) {
		t.Helper()
		if err != nil || gotOK != wantOK || !slices.Equal(got, want) {
			t.Fatalf("%s: %s at phi %g: ok %v err %v r %v, reference ok %v r %v",
				name, what, phi, gotOK, err, got, wantOK, want)
		}
	}
	for _, phi := range phis {
		r, ok, err := FEAS(ctx, g, phi, o.Ts)
		wr, wok := refFEAS(g, phi, o.Ts)
		sameR("FEAS", phi, r, wr, ok, wok, err)
		r, ok, err = FEASBackward(ctx, g, phi, o.Ts)
		wr, wok = refFEASBackward(g, phi, o.Ts)
		sameR("FEASBackward", phi, r, wr, ok, wok, err)
		r, ok, err = SetupHold(ctx, g, phi, o.Ts, o.Th, nil)
		wr, wok = refSetupHold(g, phi, o.Ts, o.Th)
		sameR("SetupHold", phi, r, wr, ok, wok, err)
	}
	r, phi, err := MinPeriod(ctx, g, o.Ts)
	wr, wphi, werr := refMinPeriod(g, o.Ts)
	if (err != nil) != (werr != nil) || phi != wphi || !slices.Equal(r, wr) {
		t.Fatalf("%s: MinPeriod = %v, %g, %v; reference %v, %g, %v", name, r, phi, err, wr, wphi, werr)
	}
	init, err := Initialize(ctx, g, o)
	want, werr := refInitialize(g, o)
	if (err != nil) != (werr != nil) {
		t.Fatalf("%s: Initialize error %v, reference %v", name, err, werr)
	}
	if err != nil {
		return
	}
	if !slices.Equal(init.R, want.R) || init.Phi != want.Phi || init.PhiMin != want.PhiMin ||
		init.Rmin != want.Rmin || init.SetupHoldOK != want.SetupHoldOK {
		t.Fatalf("%s: Initialize = %+v, reference %+v", name, init, want)
	}
}

// TestTimingMatchesReference checks the incremental searches against the
// from-scratch reference on random graphs, with setup and hold times
// varied by seed.
func TestTimingMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(40))
		o := Options{Ts: 0.5 * float64(seed%2), Th: float64(2 + seed%3), Epsilon: 0.10}
		checkAgainstReference(t, fmt.Sprintf("seed %d", seed), g, referencePhis, o)
	}
}

// TestTimingMatchesReferenceTableI checks the 21 Table I substitutes at
// up to 500 gates, adding the reference's own minimal and relaxed periods
// to the probe periods so that accepted probes are compared too.
func TestTimingMatchesReferenceTableI(t *testing.T) {
	const gateCap = 500
	o := DefaultOptions()
	for _, spec := range gen.TableI {
		c, err := gen.Generate(spec.Scale((spec.Gates + gateCap - 1) / gateCap).Spec)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.FromCircuit(c)
		want, err := refInitialize(g, o)
		if err != nil {
			t.Fatal(err)
		}
		phis := append(slices.Clone(referencePhis), want.PhiMin, want.Phi)
		checkAgainstReference(t, spec.Name, g, phis, o)
	}
}

// TestTimingZeroWeightCycle checks that a graph with a zero-weight cycle
// at r = 0 fails every search exactly as the reference does.
func TestTimingZeroWeightCycle(t *testing.T) {
	b := graph.NewBuilder()
	a := b.AddVertex("A", 1)
	c := b.AddVertex("C", 1)
	b.AddEdge(graph.Host, a, 1)
	b.AddEdge(a, c, 0)
	b.AddEdge(c, a, 0)
	b.AddEdge(c, graph.Host, 0)
	g := b.Build()
	if _, err := g.ZeroWeightTopo(graph.NewRetiming(g)); err == nil {
		t.Fatal("test premise broken: no zero-weight cycle")
	}
	checkAgainstReference(t, "cycle", g, referencePhis, DefaultOptions())
}

// FuzzTiming drives the timing state with ±1 moves decoded from the
// fuzzer's bytes and, after every refresh, compares both arrival arrays
// bit for bit with a from-scratch computation under the same retiming.
// A refresh must fail exactly when graph.ZeroWeightTopo does.
//
// Bytes: the gate count, one delay per gate, the edge count and one
// (from, to, w) triple per edge; each remaining byte is a move whose
// low bits pick the direction and which arrival arrays to refresh after it.
func FuzzTiming(f *testing.F) {
	f.Add([]byte{3, 2, 2, 2, 4, 0, 1, 2, 1, 2, 0, 2, 3, 0, 3, 0, 0, 9, 17, 5, 13, 26, 30})
	f.Add([]byte{4, 1, 3, 5, 7, 6, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 1, 1, 3, 4, 0, 4, 0, 0, 15, 7, 23, 31, 14, 6})
	f.Add([]byte{2, 2, 2, 3, 1, 2, 0, 2, 1, 0, 0, 1, 1, 7, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%10
		data = data[1:]
		b := graph.NewBuilder()
		for i := 0; i < n; i++ {
			d := 1.0
			if i < len(data) {
				d = 0.5 * float64(data[i]%8)
			}
			b.AddVertex("v", d)
		}
		data = data[min(n, len(data)):]
		if len(data) == 0 {
			return
		}
		m := int(data[0]) % 24
		data = data[1:]
		for ; m > 0 && len(data) >= 3; m-- {
			from, to := graph.VertexID(int(data[0])%(n+1)), graph.VertexID(int(data[1])%(n+1))
			if from != graph.Host || to != graph.Host {
				b.AddEdge(from, to, int32(data[2]%3))
			}
			data = data[3:]
		}
		g := b.Build()

		tm := newTiming(g)
		_, zerr := g.ZeroWeightTopo(tm.r)
		if (tm.err0 != nil) != (zerr != nil) {
			t.Fatalf("r = 0: state error %v, ZeroWeightTopo error %v", tm.err0, zerr)
		}
		if zerr != nil {
			return
		}
		check := func(a *arrivals) {
			err := tm.refresh(a)
			_, zerr := g.ZeroWeightTopo(tm.r)
			if (err != nil) != (zerr != nil) {
				t.Fatalf("r = %v: refresh error %v, ZeroWeightTopo error %v", tm.r, err, zerr)
			}
			if err != nil {
				tm.reset()
				return
			}
			want, _, _ := g.ArrivalTimes(tm.r)
			if a.reverse {
				want, _ = reverseArrivals(g, tm.r)
			}
			for v := range want {
				if math.Float64bits(a.at[v]) != math.Float64bits(want[v]) {
					t.Fatalf("r = %v: reverse %v arrival at %d = %g, from scratch %g", tm.r, a.reverse, v, a.at[v], want[v])
				}
			}
		}
		check(&tm.fwd)
		check(&tm.rev)
		for _, mv := range data {
			delta := int32(1)
			if mv&1 != 0 {
				delta = -1
			}
			tm.move(graph.VertexID(1+int(mv>>3)%n), delta)
			if mv&2 != 0 {
				check(&tm.fwd)
			}
			if mv&4 != 0 {
				check(&tm.rev)
			}
		}
		check(&tm.fwd)
		check(&tm.rev)
	})
}
