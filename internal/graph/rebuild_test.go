package graph_test

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/gen"
	"serretime/internal/graph"
	"serretime/internal/retime"
)

// referenceRebuild is the name-based Rebuild that the ID-based one
// replaced, kept as the differential reference: pins go through
// name-keyed maps, chain taps are named with Sprintf, and
// circuit.Builder resolves the names and numbers the nodes. It does not
// rename a tap whose name a kept net already has; the build then fails
// with a duplicate net.
func referenceRebuild(c *circuit.Circuit, g *graph.Graph, r graph.Retiming) (*graph.Rebuilt, error) {
	if err := g.CheckLegal(r); err != nil {
		return nil, err
	}
	vertexOf := func(n circuit.NodeID) graph.VertexID {
		v, _ := g.VertexOf(n)
		return v
	}
	effectiveDriver := func(n circuit.NodeID) (circuit.NodeID, int32) {
		var regs int32
		for c.Node(n).Kind == circuit.KindDFF {
			regs++
			n = c.Node(n).Fanin[0]
		}
		return n, regs
	}

	type pin struct {
		gate    circuit.NodeID
		pinIdx  int
		drvName string
		w       int32
	}
	var pins []pin
	need := make(map[string]int32)
	resolvePin := func(fin circuit.NodeID, toV graph.VertexID) (string, int32, error) {
		drv, w := effectiveDriver(fin)
		dn := c.Node(drv)
		var fromV graph.VertexID
		switch dn.Kind {
		case circuit.KindPI:
			fromV = graph.Host
		case circuit.KindGate:
			fromV = vertexOf(drv)
		default:
			return "", 0, fmt.Errorf("graph: unresolvable driver %q", dn.Name)
		}
		var rTo int32
		if toV != graph.Host {
			rTo = r[toV]
		}
		nw := w + rTo - r[fromV]
		if nw < 0 {
			return "", 0, fmt.Errorf("graph: pin of %q gets %d registers", dn.Name, nw)
		}
		return dn.Name, nw, nil
	}
	for _, n := range c.NodesOfKind(circuit.KindGate) {
		toV := vertexOf(n)
		for i, fin := range c.Node(n).Fanin {
			dname, nw, err := resolvePin(fin, toV)
			if err != nil {
				return nil, err
			}
			pins = append(pins, pin{gate: n, pinIdx: i, drvName: dname, w: nw})
			if nw > need[dname] {
				need[dname] = nw
			}
		}
	}
	type poPin struct {
		drvName string
		w       int32
	}
	var poPins []poPin
	for _, po := range c.POs() {
		drv, w := effectiveDriver(po)
		dn := c.Node(drv)
		var nw int32
		switch dn.Kind {
		case circuit.KindPI:
			nw = w
		case circuit.KindGate:
			nw = w - r[vertexOf(drv)]
		default:
			return nil, fmt.Errorf("graph: PO driven by %s", dn.Kind)
		}
		if nw < 0 {
			return nil, fmt.Errorf("graph: PO of %q gets %d registers", dn.Name, nw)
		}
		poPins = append(poPins, poPin{drvName: dn.Name, w: nw})
		if nw > need[dn.Name] {
			need[dn.Name] = nw
		}
	}

	b := circuit.NewBuilder(c.Name + "_retimed")
	for _, pi := range c.PIs() {
		b.PI(c.Node(pi).Name)
	}
	tapName := func(drv string, j int32) string {
		if j == 0 {
			return drv
		}
		return fmt.Sprintf("%s$r%d", drv, j)
	}
	drivers := make([]string, 0, len(need))
	for drv := range need {
		drivers = append(drivers, drv)
	}
	sort.Strings(drivers)
	for _, drv := range drivers {
		prev := drv
		for j := int32(1); j <= need[drv]; j++ {
			name := tapName(drv, j)
			b.DFF(name, prev)
			prev = name
		}
	}
	gateFanin := make(map[circuit.NodeID][]string)
	for _, n := range c.NodesOfKind(circuit.KindGate) {
		gateFanin[n] = make([]string, len(c.Node(n).Fanin))
	}
	for _, p := range pins {
		gateFanin[p.gate][p.pinIdx] = tapName(p.drvName, p.w)
	}
	for _, n := range c.NodesOfKind(circuit.KindGate) {
		nd := c.Node(n)
		b.Gate(nd.Name, nd.Fn, gateFanin[n]...)
	}
	for _, pp := range poPins {
		b.PO(tapName(pp.drvName, pp.w))
	}
	rc, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graph: rebuild: %w", err)
	}
	out := &graph.Rebuilt{C: rc, Chains: make(map[string][]circuit.NodeID, len(need))}
	for _, pp := range poPins {
		id, ok := rc.Lookup(tapName(pp.drvName, pp.w))
		if !ok {
			return nil, fmt.Errorf("graph: rebuild lost PO tap %s", tapName(pp.drvName, pp.w))
		}
		out.POTaps = append(out.POTaps, id)
	}
	for drv, n := range need {
		ids := make([]circuit.NodeID, n)
		for j := int32(1); j <= n; j++ {
			id, ok := rc.Lookup(tapName(drv, j))
			if !ok {
				return nil, fmt.Errorf("graph: rebuild lost chain tap %s", tapName(drv, j))
			}
			ids[j-1] = id
		}
		if n > 0 {
			out.Chains[drv] = ids
		}
	}
	return out, nil
}

// diffRebuilt compares two rebuilt circuits node for node (name, kind,
// function, fanin, fanout, name lookup), then the PI and PO lists,
// Chains, POTaps and the .bench bytes. It returns the first difference.
func diffRebuilt(got, want *graph.Rebuilt) error {
	gc, wc := got.C, want.C
	if gc.Name != wc.Name || gc.NumNodes() != wc.NumNodes() {
		return fmt.Errorf("circuit %q with %d nodes, want %q with %d", gc.Name, gc.NumNodes(), wc.Name, wc.NumNodes())
	}
	for i := 0; i < gc.NumNodes(); i++ {
		id := circuit.NodeID(i)
		a, b := gc.Node(id), wc.Node(id)
		if a.Name != b.Name || a.Kind != b.Kind || a.Fn != b.Fn ||
			!slices.Equal(a.Fanin, b.Fanin) || !slices.Equal(a.Fanout, b.Fanout) {
			return fmt.Errorf("node %d = %+v, want %+v", i, *a, *b)
		}
		if l, ok := gc.Lookup(a.Name); !ok || l != id {
			return fmt.Errorf("Lookup(%q) = %d, %v; want %d", a.Name, l, ok, id)
		}
	}
	if !slices.Equal(gc.PIs(), wc.PIs()) || !slices.Equal(gc.POs(), wc.POs()) {
		return fmt.Errorf("PIs %v POs %v, want %v %v", gc.PIs(), gc.POs(), wc.PIs(), wc.POs())
	}
	if !maps.EqualFunc(got.Chains, want.Chains, slices.Equal) {
		return fmt.Errorf("Chains = %v, want %v", got.Chains, want.Chains)
	}
	if !slices.Equal(got.POTaps, want.POTaps) {
		return fmt.Errorf("POTaps = %v, want %v", got.POTaps, want.POTaps)
	}
	var gb, wb bytes.Buffer
	if err := benchfmt.Write(&gb, gc); err != nil {
		return err
	}
	if err := benchfmt.Write(&wb, wc); err != nil {
		return err
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		return fmt.Errorf(".bench differs:\n%s\nwant:\n%s", gb.Bytes(), wb.Bytes())
	}
	return nil
}

// checkRebuild runs both implementations on (c, g, r) and requires the
// same circuit, or an error from both.
func checkRebuild(t *testing.T, name string, c *circuit.Circuit, g *graph.Graph, r graph.Retiming) {
	t.Helper()
	want, werr := referenceRebuild(c, g, r)
	got, gerr := graph.Rebuild(c, g, r)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: Rebuild error %v, reference error %v", name, gerr, werr)
	}
	if werr != nil {
		return
	}
	if err := diffRebuilt(got, want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// withRebuildCorners returns c extended with the structures Rebuild
// special-cases: primary inputs reaching outputs through zero, one and
// two registers, gates that read one net twice, and outputs that share a
// chain tap (two registers on one gate, each an output, beside the gate
// itself).
func withRebuildCorners(t *testing.T, c *circuit.Circuit, rng *rand.Rand) *circuit.Circuit {
	t.Helper()
	nodes := make([]circuit.Node, c.NumNodes())
	for i := range nodes {
		nodes[i] = *c.Node(circuit.NodeID(i))
	}
	pos := append([]circuit.NodeID(nil), c.POs()...)
	add := func(nd circuit.Node) circuit.NodeID {
		nodes = append(nodes, nd)
		return circuit.NodeID(len(nodes) - 1)
	}
	dff := func(name string, d circuit.NodeID) circuit.NodeID {
		return add(circuit.Node{Name: name, Kind: circuit.KindDFF, Fanin: []circuit.NodeID{d}})
	}
	gate := func(name string, fn circuit.Func, fanin ...circuit.NodeID) circuit.NodeID {
		return add(circuit.Node{Name: name, Kind: circuit.KindGate, Fn: fn, Fanin: fanin})
	}
	mark := func(id circuit.NodeID) { pos = append(pos, id) }
	pis := c.PIs()
	gates := c.NodesOfKind(circuit.KindGate)
	dffs := c.NodesOfKind(circuit.KindDFF)
	pi := pis[rng.Intn(len(pis))]
	q1 := dff("x_q1", pi)
	mark(q1)
	mark(dff("x_q2", q1))
	if rng.Intn(2) == 0 {
		mark(pi)
	}
	ga := gates[rng.Intn(len(gates))]
	mark(gate("x_twice", circuit.FnAnd, ga, ga))
	q := dffs[rng.Intn(len(dffs))]
	gate("x_twice_reg", circuit.FnOr, q, gates[rng.Intn(len(gates))], q)
	gb := gates[rng.Intn(len(gates))]
	mark(dff("x_s1", gb))
	mark(dff("x_s2", gb))
	mark(gb)
	out, err := circuit.FromNodes(c.Name, nodes, pos)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// randomLegalRetiming applies random ±1 vertex moves from r = 0, keeping
// each only if every edge at the vertex keeps a non-negative count.
func randomLegalRetiming(g *graph.Graph, rng *rand.Rand) graph.Retiming {
	r := graph.NewRetiming(g)
	legalAt := func(v graph.VertexID) bool {
		for _, e := range g.In(v) {
			if g.WR(e, r) < 0 {
				return false
			}
		}
		for _, e := range g.Out(v) {
			if g.WR(e, r) < 0 {
				return false
			}
		}
		return true
	}
	for k := 0; k < 4*g.NumVertices(); k++ {
		v := graph.VertexID(1 + rng.Intn(g.NumVertices()-1))
		d := int32(1 - 2*rng.Intn(2))
		r[v] += d
		if !legalAt(v) {
			r[v] -= d
		}
	}
	return r
}

// TestRebuildMatchesReference compares Rebuild with the name-based
// reference on 1,200 generated circuits extended with the corner
// structures, each at a random legal retiming, and checks that an
// illegal retiming fails both.
func TestRebuildMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 1200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gates := 4 + rng.Intn(40)
		c, err := gen.Generate(gen.Spec{
			Name: fmt.Sprintf("rb%d", seed), Gates: gates, Conns: gates + rng.Intn(2*gates),
			FFs: 1 + rng.Intn(12), Depth: 2 + rng.Intn(6), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		c = withRebuildCorners(t, c, rng)
		g, err := graph.FromCircuit(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := randomLegalRetiming(g, rng)
		name := fmt.Sprintf("seed %d", seed)
		checkRebuild(t, name, c, g, r)
		e := g.Edge(graph.EdgeID(rng.Intn(g.NumEdges())))
		if e.From == e.To {
			continue // a self-loop keeps its count under every retiming
		}
		bad := r.Clone()
		if e.To == graph.Host {
			bad[e.From] = e.W + 1
		} else {
			bad[e.To] = bad[e.From] - e.W - 1
		}
		if _, err := graph.Rebuild(c, g, bad); err == nil {
			t.Fatalf("%s: Rebuild accepted an illegal retiming", name)
		}
		checkRebuild(t, name+" illegal", c, g, bad)
	}
}

// TestRebuildMatchesReferenceTableI compares Rebuild with the reference
// on the 21 Table I substitutes at up to 2,000 gates, each at its
// Section V retiming.
func TestRebuildMatchesReferenceTableI(t *testing.T) {
	const gateCap = 2000
	for _, spec := range gen.TableI {
		c, err := gen.Generate(spec.Scale((spec.Gates + gateCap - 1) / gateCap).Spec)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromCircuit(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		init, err := retime.Initialize(context.Background(), g, retime.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		checkRebuild(t, spec.Name, c, g, init.R)
	}
}

// TestRebuildTapNameCollision checks the renaming rule: a chain tap
// whose name a primary input or gate already has takes the first free
// $K suffix, a flip-flop of the original circuit (which Rebuild drops)
// does not count as taken, and every other name stays as it was.
func TestRebuildTapNameCollision(t *testing.T) {
	b := circuit.NewBuilder("collide")
	b.PI("x").PI("a$r1")
	b.Gate("a", circuit.FnAnd, "x", "a$r1")
	b.DFF("q", "a").DFF("a$r2", "q")
	b.Gate("a$r1$1", circuit.FnNot, "a$r2")
	b.Gate("o", circuit.FnNot, "q")
	b.PO("o").PO("a$r1$1")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromCircuit(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := graph.Rebuild(c, g, graph.NewRetiming(g))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, id := range rb.Chains["a"] {
		got = append(got, rb.C.Node(id).Name)
	}
	if want := []string{"a$r1$2", "a$r2"}; !slices.Equal(got, want) {
		t.Fatalf("chain of a named %v, want %v", got, want)
	}
	var out strings.Builder
	if err := benchfmt.Write(&out, rb.C); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"INPUT(a$r1)", "a$r1$2 = DFF(a)", "a$r2 = DFF(a$r1$2)", "a = AND(x, a$r1)", "a$r1$1 = NOT(a$r2)", "o = NOT(a$r1$2)"} {
		if !strings.Contains(out.String(), line+"\n") {
			t.Errorf("rebuilt netlist lacks %q:\n%s", line, out.String())
		}
	}
}
