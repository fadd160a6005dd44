package bliffmt

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/gen"
	"serretime/internal/sim"
)

const sample = `
# a small sequential model
.model demo
.inputs a b \
        c
.outputs y z
.latch n2 q re clk 2
.names a b n1
11 1
.names n1 q n2
0- 1
-0 1
.names n2 c y
10 1
01 1
.names q z
1 1
.end
`

func TestParseSample(t *testing.T) {
	c, err := Parse(strings.NewReader(sample), "fallback")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "demo" {
		t.Fatalf("name = %q", c.Name)
	}
	pis, pos, gates, dffs := c.Counts()
	if pis != 3 || pos != 2 || gates != 4 || dffs != 1 {
		t.Fatalf("counts = %d %d %d %d", pis, pos, gates, dffs)
	}
	check := func(name string, fn circuit.Func) {
		t.Helper()
		id, ok := c.Lookup(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if got := c.Node(id).Fn; got != fn {
			t.Fatalf("%s = %v, want %v", name, got, fn)
		}
	}
	check("n1", circuit.FnAnd)
	check("n2", circuit.FnNand)
	check("y", circuit.FnXor)
	check("z", circuit.FnBuf)
}

func TestCoverMapping(t *testing.T) {
	cases := []struct {
		cover string
		fn    circuit.Func
	}{
		{".names a y\n1 1", circuit.FnBuf},
		{".names a y\n0 1", circuit.FnNot},
		{".names a b y\n11 1", circuit.FnAnd},
		{".names a b y\n00 1", circuit.FnNor},
		{".names a b y\n11 0", circuit.FnNand},
		{".names a b y\n00 0", circuit.FnOr},
		{".names a b y\n1- 1\n-1 1", circuit.FnOr},
		{".names a b y\n0- 1\n-0 1", circuit.FnNand},
		{".names a b y\n1- 0\n-1 0", circuit.FnNor},
		{".names a b y\n0- 0\n-0 0", circuit.FnAnd},
		{".names a b y\n10 1\n01 1", circuit.FnXor},
		{".names a b y\n11 1\n00 1", circuit.FnXnor},
		{".names a b c y\n111 1", circuit.FnAnd},
		{".names y\n1", circuit.FnConst1},
		{".names y", circuit.FnConst0},
	}
	for _, tc := range cases {
		// The inverter n gives the constant covers a gate other than a
		// constant, which every circuit needs.
		src := ".model t\n.inputs a b c\n.outputs y\n" + tc.cover + "\n.names a n\n0 1\n.end\n"
		c, err := Parse(strings.NewReader(src), "t")
		if err != nil {
			t.Errorf("%q: %v", tc.cover, err)
			continue
		}
		id, _ := c.Lookup("y")
		if got := c.Node(id).Fn; got != tc.fn {
			t.Errorf("%q: got %v, want %v", tc.cover, got, tc.fn)
		}
	}
}

func TestRejectedCovers(t *testing.T) {
	cases := []string{
		".names a b y\n11 1\n00 1\n10 1", // 3 rows, not a simple gate
		".names a b y\n1- 1\n11 0",       // mixed polarity
		".names a b y\n1 1",              // arity mismatch
		".names a b y\n12 1",             // bad literal treated as unmapped
		".names a b c y\n1-- 1\n-1- 1",   // incomplete one-hot
		"11 1",                           // stray cover row
		".names a b y\n11 2",             // bad output
		".subckt foo a=b",                // unsupported construct
	}
	for _, tc := range cases {
		src := ".model t\n.inputs a b c\n.outputs y\n" + tc + "\n.end\n"
		if _, err := Parse(strings.NewReader(src), "t"); err == nil {
			t.Errorf("%q: accepted", tc)
		}
	}
}

func TestRoundTripS27(t *testing.T) {
	orig, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(buf.Bytes()), "s27")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	op, oo, og, od := orig.Counts()
	bp, bo, bg, bd := back.Counts()
	if op != bp || oo != bo || og != bg || od != bd {
		t.Fatalf("round trip counts differ: %v vs %v", []int{op, oo, og, od}, []int{bp, bo, bg, bd})
	}
	for _, name := range orig.SortedNames() {
		oid, _ := orig.Lookup(name)
		bid, ok := back.Lookup(name)
		if !ok {
			t.Fatalf("net %q lost", name)
		}
		on, bn := orig.Node(oid), back.Node(bid)
		if on.Kind != bn.Kind || on.Fn != bn.Fn {
			t.Fatalf("net %q changed: %v/%v vs %v/%v", name, on.Kind, on.Fn, bn.Kind, bn.Fn)
		}
	}
}

// TestRoundTripBehavioral checks functional equivalence of a BLIF round
// trip on a generated circuit by co-simulation.
func TestRoundTripBehavioral(t *testing.T) {
	c, err := gen.Generate(gen.Spec{Name: "bliftrip", Gates: 150, Conns: 330, FFs: 40, Depth: 12})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(buf.Bytes()), "bliftrip")
	if err != nil {
		t.Fatal(err)
	}
	// Same nodes, same wiring: identical traces under the same seed.
	ta, err := sim.Run(context.Background(), c, sim.Config{Words: 2, Frames: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sim.Run(context.Background(), back, sim.Config{Words: 2, Frames: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 6; f++ {
		for i, po := range c.POs() {
			pb := back.POs()[i]
			if c.Node(po).Name != back.Node(pb).Name {
				t.Fatalf("PO order changed: %s vs %s", c.Node(po).Name, back.Node(pb).Name)
			}
			va, vb := ta.Value(f, po), tb.Value(f, pb)
			for w := range va {
				if va[w] != vb[w] {
					// Traces only match if node declaration order (and
					// thus RNG consumption) matches; verify names too.
					t.Fatalf("frame %d PO %s differs", f, c.Node(po).Name)
				}
			}
		}
	}
}

func TestWriteHasModelAndEnd(t *testing.T) {
	c, _ := benchfmt.ParseFile("../../testdata/s27.bench")
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, ".model s27\n") || !strings.HasSuffix(out, ".end\n") {
		t.Fatalf("framing wrong:\n%s", out)
	}
	if !strings.Contains(out, ".latch G10 G5 re clk 2") {
		t.Fatalf("latch missing:\n%s", out)
	}
}
