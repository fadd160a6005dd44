package vlogfmt

import (
	"bytes"
	"strings"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
)

const sample = `
// classic gate-level netlist
module demo (a, b, c, y, z);
  input a, b,
        c;           // multi-line declaration
  output y, z;
  wire n1, n2, q;
  nand NAND2_1 (n1, a, b);
  /* a block
     comment */
  xor  XOR2_1  (n2, n1, q);
  dff  DFF_1   (q, n2);
  not  NOT1_1  (y, n2);
  buf  BUF1_1  (z, q);
endmodule
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
	n1, _ := c.Lookup("n1")
	if c.Node(n1).Fn != circuit.FnNand {
		t.Fatal("n1 not a NAND")
	}
	q, ok := c.Lookup("q")
	if !ok || c.Node(q).Kind != circuit.KindDFF {
		t.Fatal("q not a DFF")
	}
	if drv := c.Node(q).Fanin[0]; c.Node(drv).Name != "n2" {
		t.Fatal("dff input wrong (output-first convention)")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"noModule", "input a;"},
		{"assign", "module m (a); input a; assign y = a; endmodule"},
		{"unknownPrim", "module m (a); input a; foo F1 (y, a); endmodule"},
		{"dffArity", "module m (a); input a; dff D1 (q); endmodule"},
		{"gateArity", "module m (a); input a; nand N (y); endmodule"},
		{"moduleNoName", "module ; endmodule"},
	}
	for _, tc := range cases {
		if _, err := Parse(strings.NewReader(tc.src), "t"); err == nil {
			t.Errorf("%s: accepted", tc.name)
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
		t.Fatalf("round trip counts: %v vs %v", []int{op, oo, og, od}, []int{bp, bo, bg, bd})
	}
	for _, name := range orig.SortedNames() {
		oid, _ := orig.Lookup(name)
		bid, ok := back.Lookup(name)
		if !ok {
			t.Fatalf("net %q lost", name)
		}
		if orig.Node(oid).Fn != back.Node(bid).Fn || orig.Node(oid).Kind != back.Node(bid).Kind {
			t.Fatalf("net %q changed", name)
		}
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"G10":    "G10",
		"G10$r1": "G10_r1",
		"9lives": "n9lives",
		"a.b[3]": "a_b_3_",
		"":       "n",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteSanitizesAndDisambiguates(t *testing.T) {
	b := circuit.NewBuilder("t")
	b.PI("a$x")
	b.PI("a_x") // collides with the sanitized form of a$x
	b.Gate("y", circuit.FnAnd, "a$x", "a_x")
	b.PO("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a_x_") {
		t.Fatalf("collision not disambiguated:\n%s", out)
	}
	if _, err := Parse(strings.NewReader(out), "t"); err != nil {
		t.Fatalf("emitted verilog does not reparse: %v\n%s", err, out)
	}
}

func TestWriteRejectsConstants(t *testing.T) {
	b := circuit.NewBuilder("t")
	b.PI("a")
	b.Gate("one", circuit.FnConst1)
	b.Gate("y", circuit.FnAnd, "a", "one")
	b.PO("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err == nil {
		t.Fatal("constant gate emitted structurally")
	}
}
