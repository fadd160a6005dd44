package serretime_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"serretime"
	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/eco"
	"serretime/internal/gen"
	"serretime/internal/guard"
)

// deltaBase is the circuit the ApplyDeltaOps tests edit: inputs a and b,
// g1 = AND(a, b), g2 = OR(g1, a), d = DFF(g2), and g2 a primary output.
func deltaBase(t testing.TB) *circuit.Circuit {
	t.Helper()
	return mustBuild(t, circuit.NewBuilder("eco").PI("a").PI("b").
		Gate("g1", circuit.FnAnd, "a", "b").
		Gate("g2", circuit.FnOr, "g1", "a").
		DFF("d", "g2").PO("g2"))
}

func mustBuild(t testing.TB, b *circuit.Builder) *circuit.Circuit {
	t.Helper()
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustApply(t testing.TB, c *circuit.Circuit, ops ...serretime.DeltaOp) *circuit.Circuit {
	t.Helper()
	out, err := serretime.ApplyDeltaOps(c, ops)
	if err != nil {
		t.Fatalf("ApplyDeltaOps(%+v): %v", ops, err)
	}
	return out
}

// sameCircuit reports the first difference between two circuits: name,
// node count, any node's name, kind, function, fanin or fanout, name
// lookup, PIs or POs.
func sameCircuit(got, want *circuit.Circuit) error {
	if got.Name != want.Name || got.NumNodes() != want.NumNodes() {
		return fmt.Errorf("circuit %q with %d nodes, want %q with %d", got.Name, got.NumNodes(), want.Name, want.NumNodes())
	}
	for i := 0; i < got.NumNodes(); i++ {
		g, w := got.Node(circuit.NodeID(i)), want.Node(circuit.NodeID(i))
		if g.Name != w.Name || g.Kind != w.Kind || g.Fn != w.Fn ||
			!slices.Equal(g.Fanin, w.Fanin) || !slices.Equal(g.Fanout, w.Fanout) {
			return fmt.Errorf("node %d: %+v, want %+v", i, *g, *w)
		}
		if id, ok := got.Lookup(g.Name); !ok || id != circuit.NodeID(i) {
			return fmt.Errorf("Lookup(%q) = %d, %v, want %d", g.Name, id, ok, i)
		}
	}
	if !slices.Equal(got.PIs(), want.PIs()) || !slices.Equal(got.POs(), want.POs()) {
		return fmt.Errorf("PIs %v POs %v, want %v %v", got.PIs(), got.POs(), want.PIs(), want.POs())
	}
	return nil
}

func benchOf(t testing.TB, c *circuit.Circuit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := benchfmt.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fanoutNames(c *circuit.Circuit, name string) []string {
	id, _ := c.Lookup(name)
	var out []string
	for _, r := range c.Node(id).Fanout {
		out = append(out, c.Node(r).Name)
	}
	return out
}

func TestApplyDeltaOpsRewire(t *testing.T) {
	c := deltaBase(t)
	// g2 = OR(g1, a) -> OR(b, a): nothing reads g1 any more, and b gains
	// g2 after g1 in its fanout.
	got := mustApply(t, c, serretime.DeltaOp{Op: "rewire", Name: "g2", Fanin: []string{"b", "a"}})
	want := mustBuild(t, circuit.NewBuilder("eco").PI("a").PI("b").
		Gate("g1", circuit.FnAnd, "a", "b").
		Gate("g2", circuit.FnOr, "b", "a").
		DFF("d", "g2").PO("g2"))
	if err := sameCircuit(got, want); err != nil {
		t.Fatal(err)
	}
	if fo := fanoutNames(got, "g1"); len(fo) != 0 {
		t.Fatalf("old driver g1 still has fanout %v", fo)
	}
	if fo := fanoutNames(got, "b"); !slices.Equal(fo, []string{"g1", "g2"}) {
		t.Fatalf("b fanout = %v, want [g1 g2]", fo)
	}
	// A flip-flop's data input moves too.
	got = mustApply(t, got, serretime.DeltaOp{Op: "rewire", Name: "d", Fanin: []string{"a"}})
	if fo := fanoutNames(got, "g2"); len(fo) != 0 {
		t.Fatalf("g2 keeps stale fanout %v after the DFF rewire", fo)
	}
	if fo := fanoutNames(got, "a"); !slices.Equal(fo, []string{"g1", "g2", "d"}) {
		t.Fatalf("a fanout = %v, want [g1 g2 d]", fo)
	}
}

func TestApplyDeltaOpsRewireDuplicatePin(t *testing.T) {
	// Two pins reading one net: the fanout stays deduplicated, and moving
	// one pin away keeps the reader listed.
	c := mustApply(t, deltaBase(t), serretime.DeltaOp{Op: "rewire", Name: "g1", Fanin: []string{"a", "a"}})
	if fo := fanoutNames(c, "a"); !slices.Equal(fo, []string{"g1", "g2"}) {
		t.Fatalf("a fanout = %v, want [g1 g2]", fo)
	}
	c = mustApply(t, c, serretime.DeltaOp{Op: "rewire", Name: "g1", Fanin: []string{"a", "b"}})
	if fo := fanoutNames(c, "a"); !slices.Equal(fo, []string{"g1", "g2"}) {
		t.Fatalf("a fanout after moving one pin = %v, want [g1 g2]", fo)
	}
}

func TestApplyDeltaOpsPOs(t *testing.T) {
	c := deltaBase(t)
	got := mustApply(t, c,
		serretime.DeltaOp{Op: "unmark_po", Name: "g2"},
		serretime.DeltaOp{Op: "unmark_po", Name: "g2"}, // idempotent
	)
	if len(got.POs()) != 0 {
		t.Fatalf("POs = %v after unmark", got.POs())
	}
	// mark_po appends and is idempotent, so the order of first marks holds.
	got = mustApply(t, c,
		serretime.DeltaOp{Op: "mark_po", Name: "a"},
		serretime.DeltaOp{Op: "mark_po", Name: "g1"},
		serretime.DeltaOp{Op: "mark_po", Name: "a"},
		serretime.DeltaOp{Op: "mark_po", Name: "g2"},
	)
	var names []string
	for _, p := range got.POs() {
		names = append(names, got.Node(p).Name)
	}
	if !slices.Equal(names, []string{"g2", "a", "g1"}) {
		t.Fatalf("POs = %v, want [g2 a g1]", names)
	}
}

// TestApplyDeltaOpsRemoveNode: within one delta, removal renumbers the
// nodes above the removed one, a node reading one driver through two
// pins releases it fully, a new node takes the next ID, and a removed
// name can be declared again.
func TestApplyDeltaOpsRemoveNode(t *testing.T) {
	c := deltaBase(t)
	got := mustApply(t, c,
		serretime.DeltaOp{Op: "rewire", Name: "g2", Fanin: []string{"b", "a"}},
		serretime.DeltaOp{Op: "rm_node", Name: "g1"},
	)
	want := mustBuild(t, circuit.NewBuilder("eco").PI("a").PI("b").
		Gate("g2", circuit.FnOr, "b", "a").
		DFF("d", "g2").PO("g2"))
	if err := sameCircuit(got, want); err != nil {
		t.Fatalf("remove g1: %v", err)
	}

	got = mustApply(t, c,
		serretime.DeltaOp{Op: "rm_node", Name: "d"},
		serretime.DeltaOp{Op: "unmark_po", Name: "g2"},
		serretime.DeltaOp{Op: "rm_node", Name: "g2"},
		serretime.DeltaOp{Op: "add_gate", Name: "g3", Fn: "AND", Fanin: []string{"g1", "g1"}},
		serretime.DeltaOp{Op: "rm_node", Name: "g3"},
		serretime.DeltaOp{Op: "add_gate", Name: "d", Fn: "NOT", Fanin: []string{"g1"}},
		serretime.DeltaOp{Op: "add_dff", Name: "q", Fanin: []string{"d"}},
		serretime.DeltaOp{Op: "mark_po", Name: "q"},
	)
	want = mustBuild(t, circuit.NewBuilder("eco").PI("a").PI("b").
		Gate("g1", circuit.FnAnd, "a", "b").
		Gate("d", circuit.FnNot, "g1").
		DFF("q", "d").PO("q"))
	if err := sameCircuit(got, want); err != nil {
		t.Fatalf("remove, add and re-declare: %v", err)
	}
}

// snapshot deep-copies what a circuit exposes, for before/after checks.
type snapshot struct {
	bench []byte
	nodes []circuit.Node
	order []circuit.NodeID
	csr   *circuit.CSR
}

func snap(t testing.TB, c *circuit.Circuit) snapshot {
	t.Helper()
	s := snapshot{bench: benchOf(t, c)}
	for i := 0; i < c.NumNodes(); i++ {
		nd := *c.Node(circuit.NodeID(i))
		nd.Fanin = slices.Clone(nd.Fanin)
		nd.Fanout = slices.Clone(nd.Fanout)
		s.nodes = append(s.nodes, nd)
	}
	s.order = slices.Clone(c.TopoOrder())
	s.csr = c.CSR()
	return s
}

func (s snapshot) check(t testing.TB, c *circuit.Circuit, what string) {
	t.Helper()
	after := snap(t, c)
	if !bytes.Equal(s.bench, after.bench) || after.csr != s.csr || !slices.Equal(after.order, s.order) {
		t.Fatalf("%s changed its input circuit", what)
	}
	for i, nd := range s.nodes {
		got := *c.Node(circuit.NodeID(i))
		if got.Name != nd.Name || !slices.Equal(got.Fanin, nd.Fanin) || !slices.Equal(got.Fanout, nd.Fanout) {
			t.Fatalf("%s changed input node %d: %+v, was %+v", what, i, got, nd)
		}
	}
}

// TestApplyDeltaOpsLeavesInputUntouched: a delta that rewires, removes,
// adds and re-marks builds a new circuit, and the input keeps its nodes,
// fanouts, .bench bytes and cached CSR view.
func TestApplyDeltaOpsLeavesInputUntouched(t *testing.T) {
	c := deltaBase(t)
	before := snap(t, c)
	got := mustApply(t, c,
		serretime.DeltaOp{Op: "rewire", Name: "g1", Fanin: []string{"b", "b"}},
		serretime.DeltaOp{Op: "rm_node", Name: "d"},
		serretime.DeltaOp{Op: "add_dff", Name: "q", Fanin: []string{"g1"}},
		serretime.DeltaOp{Op: "unmark_po", Name: "g2"},
		serretime.DeltaOp{Op: "mark_po", Name: "q"},
	)
	before.check(t, c, "an applied delta")
	if got == c || bytes.Equal(benchOf(t, got), before.bench) {
		t.Fatal("the delta did not build a new circuit")
	}
}

// TestApplyDeltaOpsRejections: every op that cannot apply, and a result
// with a combinational cycle, is a typed error (guard.ErrParse) naming
// the op, and leaves the input as it was.
func TestApplyDeltaOpsRejections(t *testing.T) {
	type op = serretime.DeltaOp
	for _, tc := range []struct {
		name string
		ops  []op
		want string // substring of the error
	}{
		{"unknown-op", []op{{Op: "frobnicate", Name: "g1"}}, "delta op 0"},
		{"unknown-function", []op{{Op: "add_gate", Name: "x", Fn: "MAJ", Fanin: []string{"a", "b"}}}, "unknown function"},
		{"unknown-target", []op{{Op: "rm_node", Name: "nope"}}, "unknown net"},
		{"unknown-fanin", []op{{Op: "rewire", Name: "g1", Fanin: []string{"a", "nope"}}}, "unknown net"},
		{"rewire-arity", []op{{Op: "rewire", Name: "g1", Fanin: []string{"a"}}}, "cannot take 1 inputs"},
		{"rewire-dff-arity", []op{{Op: "rewire", Name: "d", Fanin: []string{"a", "b"}}}, "exactly 1 input"},
		{"rewire-pi", []op{{Op: "rewire", Name: "a", Fanin: []string{"b"}}}, "primary input"},
		{"add-gate-arity", []op{{Op: "add_gate", Name: "x", Fn: "NOT", Fanin: []string{"a", "b"}}}, "cannot take 2 inputs"},
		{"add-dff-arity", []op{{Op: "add_dff", Name: "x"}}, "exactly 1 input"},
		{"duplicate-name", []op{{Op: "add_gate", Name: "g1", Fn: "AND", Fanin: []string{"a", "b"}}}, "already exists"},
		{"duplicate-added", []op{
			{Op: "add_dff", Name: "x", Fanin: []string{"a"}},
			{Op: "add_dff", Name: "x", Fanin: []string{"b"}},
		}, "delta op 1"},
		{"empty-name", []op{{Op: "add_dff", Name: "", Fanin: []string{"a"}}}, "empty net name"},
		// A newline in a name would add INPUT(evil) to the written netlist.
		{"control-character-name", []op{{Op: "add_gate", Name: "n1\nINPUT(evil)", Fn: "AND", Fanin: []string{"a", "b"}}}, "control character"},
		{"rm-read", []op{{Op: "rm_node", Name: "g1"}}, `still read by "g2"`},
		{"rm-po", []op{{Op: "rm_node", Name: "d"}, {Op: "rm_node", Name: "g2"}}, "primary output"},
		{"rm-unread-po", []op{
			{Op: "add_gate", Name: "x", Fn: "AND", Fanin: []string{"a", "b"}},
			{Op: "mark_po", Name: "x"},
			{Op: "rm_node", Name: "x"},
		}, "delta op 2"},
		{"rm-then-use", []op{
			{Op: "rm_node", Name: "d"},
			{Op: "mark_po", Name: "d"},
		}, "delta op 1"},
		{"cycle", []op{{Op: "rewire", Name: "g1", Fanin: []string{"a", "g2"}}}, "combinational cycle"},
		{"cycle-through-added", []op{
			{Op: "add_gate", Name: "x", Fn: "NOT", Fanin: []string{"g2"}},
			{Op: "rewire", Name: "g1", Fanin: []string{"x", "b"}},
		}, "combinational cycle"},
		{"register-self-loop", []op{{Op: "rewire", Name: "d", Fanin: []string{"d"}}}, `flip-flop "d" is on a loop with no gate`},
		{"register-loop", []op{
			{Op: "add_dff", Name: "x", Fanin: []string{"d"}},
			{Op: "rewire", Name: "d", Fanin: []string{"x"}},
		}, "loop with no gate"},
		// Cases named s27/... edit testdata/s27.bench.
		{"s27/register-self-loop", []op{{Op: "rewire", Name: "G5", Fanin: []string{"G5"}}}, `flip-flop "G5" is on a loop with no gate`},
		// Cases named one-gate/... edit INPUT(a) OUTPUT(q) g = NOT(a)
		// q = DFF(g). Without g no gate is left, so no clock period.
		{"one-gate/remove-last-gate", []op{
			{Op: "rewire", Name: "q", Fanin: []string{"a"}},
			{Op: "rm_node", Name: "g"},
		}, "no gate other than a constant"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := deltaBase(t)
			switch {
			case strings.HasPrefix(tc.name, "s27/"):
				var err error
				if c, err = benchfmt.ParseFile("testdata/s27.bench"); err != nil {
					t.Fatal(err)
				}
			case strings.HasPrefix(tc.name, "one-gate/"):
				c = mustBuild(t, circuit.NewBuilder("one-gate").PI("a").PO("q").
					Gate("g", circuit.FnNot, "a").DFF("q", "g"))
			}
			before := snap(t, c)
			got, err := serretime.ApplyDeltaOps(c, tc.ops)
			if err == nil {
				t.Fatal("delta accepted")
			}
			if !errors.Is(err, guard.ErrParse) || got != nil {
				t.Fatalf("rejection %v (circuit %v) does not unwrap to guard.ErrParse", err, got)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			before.check(t, c, "a rejected delta")
		})
	}
}

// Fuzz op codes: a byte selects opNames[b%8], and 7 ends the delta.
var opNames = []string{"add_gate", "add_dff", "rm_node", "rewire", "mark_po", "unmark_po", "frobnicate"}

const (
	opEnd       = 7
	netFresh    = 249 // 249-252: the delta's fresh names 0-3
	netControl  = 253
	netNoSuch   = 254
	netEmpty    = 255
	maxFuzzOps  = 64
	fnNoSuch    = 10 // function bytes 0-9 are circuit.Func values
	fnCodeCount = 11
)

// decodeDelta reads one delta for circuit c off the front of data and
// returns it with the rest. Per op:
//
//	op byte      opNames[b%8]; 7 ends the delta
//	net byte     the target net
//	fn byte      add_gate only: circuit.Func(b%11), 10 an unknown name
//	count byte   b%4 fanin nets, one net byte each
//
// A net byte below 249 names node b%n of c (ops still resolve against
// the circuit as it stands when they run), 249-252 the delta's fresh
// names "x<delta>_0" to "x<delta>_3", 253 a name with a newline (which
// circuit validation rejects), 254 a net that never exists and 255 the
// empty name.
func decodeDelta(c *circuit.Circuit, data []byte, delta int) ([]serretime.DeltaOp, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return opEnd
		}
		b := data[0]
		data = data[1:]
		return b
	}
	net := func() string {
		b := next()
		switch {
		case b == netEmpty:
			return ""
		case b == netNoSuch:
			return "no_such_net"
		case b == netControl:
			return "n1\nINPUT(evil)"
		case b >= netFresh || c.NumNodes() == 0:
			return fmt.Sprintf("x%d_%d", delta, b%4)
		}
		return c.Node(circuit.NodeID(int(b) % c.NumNodes())).Name
	}
	var ops []serretime.DeltaOp
	for len(data) > 0 {
		code := next() % 8
		if code == opEnd {
			break
		}
		op := serretime.DeltaOp{Op: opNames[code], Name: net()}
		if op.Op == "add_gate" {
			if f := next() % fnCodeCount; f == fnNoSuch {
				op.Fn = "MAJ"
			} else {
				op.Fn = circuit.Func(f).String()
			}
		}
		for k := next() % 4; k > 0; k-- {
			op.Fanin = append(op.Fanin, net())
		}
		ops = append(ops, op)
	}
	return ops, data
}

// encodeDelta is decodeDelta's inverse for ops on c whose names are nets
// of c or new ones (every new name becomes the same fresh name; a seed
// delta declares at most one).
func encodeDelta(t testing.TB, c *circuit.Circuit, ops []serretime.DeltaOp) []byte {
	t.Helper()
	net := func(name string) byte {
		if id, ok := c.Lookup(name); ok {
			if id >= netFresh {
				t.Fatalf("seed net %q has ID %d, beyond one byte", name, id)
			}
			return byte(id)
		}
		return netFresh
	}
	var out []byte
	for _, op := range ops {
		out = append(out, byte(slices.Index(opNames, op.Op)), net(op.Name))
		if op.Op == "add_gate" {
			fn, _ := circuit.ParseFunc(op.Fn)
			out = append(out, byte(fn))
		}
		out = append(out, byte(len(op.Fanin)))
		for _, f := range op.Fanin {
			out = append(out, net(f))
		}
	}
	return append(out, opEnd)
}

// fuzzBases are the circuits FuzzApplyDeltaOps edits: s27 and a small
// generated circuit, each in its .bench round-trip form (primary inputs
// first), so every result must round-trip node for node.
func fuzzBases(t testing.TB) []*circuit.Circuit {
	t.Helper()
	raw, err := os.ReadFile("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	s27, err := benchfmt.Parse(bytes.NewReader(raw), "s27")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(gen.Spec{Name: "fuzz", Gates: 40, Conns: 90, FFs: 6, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	small, err := benchfmt.Parse(bytes.NewReader(benchOf(t, g)), "fuzz")
	if err != nil {
		t.Fatal(err)
	}
	return []*circuit.Circuit{s27, small}
}

// FuzzApplyDeltaOps applies fuzzer-chosen delta sequences to s27 or a
// small generated circuit (the first byte picks). Every call must leave
// its input's .bench bytes as they were; every rejection must unwrap to
// guard.ErrParse; every result must round-trip through benchfmt.Write
// and Parse node for node, build a Design with no error at all, and pass
// analyzeProblem.
// The corpus holds internal/eco delta streams and hand-written
// rejections.
func FuzzApplyDeltaOps(f *testing.F) {
	bases := fuzzBases(f)
	for bi, base := range bases {
		g := eco.NewGen(base, int64(bi+1))
		seed := []byte{byte(bi)}
		for i := 0; i < 6; i++ {
			before := g.Circuit()
			ops, err := g.Next()
			if err != nil {
				f.Fatal(err)
			}
			seed = append(seed, encodeDelta(f, before, ops)...)
		}
		f.Add(seed)
	}
	s27 := bases[0]
	for _, ops := range [][]serretime.DeltaOp{
		{{Op: "rewire", Name: "G9", Fanin: []string{"G16", "G11"}}},      // cycle
		{{Op: "rm_node", Name: "G14"}},                                   // still read
		{{Op: "rewire", Name: "G0", Fanin: []string{"G1"}}},              // PI
		{{Op: "add_gate", Name: "G8", Fn: "AND", Fanin: []string{"G0"}}}, // arity, duplicate
		{{Op: "rewire", Name: "G5", Fanin: []string{"G5"}}},              // register loop
		{{Op: "unmark_po", Name: "G17"}, {Op: "rm_node", Name: "G17"}},   // remove a PO
		{{Op: "add_dff", Name: "q", Fanin: []string{"G17"}}, {Op: "mark_po", Name: "q"}},
	} {
		f.Add(append([]byte{0}, encodeDelta(f, s27, ops)...))
	}
	// add_gate "n1\nINPUT(evil)" = AND(G0, G1) on s27: a control character.
	f.Add([]byte{0, 0, netControl, byte(circuit.FnAnd), 2, 0, 1, opEnd})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := bases[int(data[0])%len(bases)]
		data = data[1:]
		for delta, nops := 0, 0; len(data) > 0 && nops < maxFuzzOps; delta++ {
			var ops []serretime.DeltaOp
			ops, data = decodeDelta(c, data, delta)
			nops += len(ops)
			before := benchOf(t, c)
			got, err := serretime.ApplyDeltaOps(c, ops)
			if !bytes.Equal(benchOf(t, c), before) {
				t.Fatalf("delta %d %+v changed its input", delta, ops)
			}
			if err != nil {
				if !errors.Is(err, guard.ErrParse) {
					t.Fatalf("delta %d %+v: rejection %v does not unwrap to guard.ErrParse", delta, ops, err)
				}
				continue
			}
			b := benchOf(t, got)
			back, err := benchfmt.Parse(bytes.NewReader(b), "fallback")
			if err != nil {
				t.Fatalf("delta %d %+v: result does not parse: %v\n%s", delta, ops, err, b)
			}
			if err := sameCircuit(back, got); err != nil {
				t.Fatalf("delta %d %+v: .bench round trip: %v", delta, ops, err)
			}
			d, err := serretime.ParseBench(bytes.NewReader(b), "fallback")
			if err != nil {
				t.Fatalf("delta %d %+v: Design: %v", delta, ops, err)
			}
			if err := analyzeProblem(d); err != nil {
				t.Fatalf("delta %d %+v: %v", delta, ops, err)
			}
			c = got
		}
	})
}
