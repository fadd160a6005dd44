package benchfmt

import (
	"bytes"
	"strings"
	"testing"

	"serretime/internal/circuit"
)

func TestParseS27(t *testing.T) {
	c, err := ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "s27" {
		t.Fatalf("Name = %q", c.Name)
	}
	pis, pos, gates, dffs := c.Counts()
	if pis != 4 || pos != 1 || gates != 10 || dffs != 3 {
		t.Fatalf("Counts = %d %d %d %d", pis, pos, gates, dffs)
	}
	g10, ok := c.Lookup("G10")
	if !ok || c.Node(g10).Fn != circuit.FnNor {
		t.Fatal("G10 wrong")
	}
	// G17 = NOT(G11) is the PO.
	po := c.POs()[0]
	if c.Node(po).Name != "G17" {
		t.Fatalf("PO = %q", c.Node(po).Name)
	}
}

func TestParsePipeline4(t *testing.T) {
	c, err := ParseFile("../../testdata/pipeline4.bench")
	if err != nil {
		t.Fatal(err)
	}
	pis, pos, gates, dffs := c.Counts()
	if pis != 3 || pos != 2 || gates != 8 || dffs != 5 {
		t.Fatalf("Counts = %d %d %d %d", pis, pos, gates, dffs)
	}
}

func TestRoundTrip(t *testing.T) {
	orig, err := ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf, "s27")
	if err != nil {
		t.Fatalf("reparse: %v\noutput was:\n%s", err, buf.String())
	}
	if back.NumNodes() != orig.NumNodes() {
		t.Fatalf("round trip node count %d != %d", back.NumNodes(), orig.NumNodes())
	}
	op, oo, og, od := orig.Counts()
	bp, bo, bg, bd := back.Counts()
	if op != bp || oo != bo || og != bg || od != bd {
		t.Fatal("round trip counts differ")
	}
	for _, name := range orig.SortedNames() {
		oid, _ := orig.Lookup(name)
		bid, ok := back.Lookup(name)
		if !ok {
			t.Fatalf("net %q lost in round trip", name)
		}
		on, bn := orig.Node(oid), back.Node(bid)
		if on.Kind != bn.Kind || on.Fn != bn.Fn || len(on.Fanin) != len(bn.Fanin) {
			t.Fatalf("net %q changed in round trip", name)
		}
		for i := range on.Fanin {
			if orig.Node(on.Fanin[i]).Name != back.Node(bn.Fanin[i]).Name {
				t.Fatalf("net %q fanin %d changed", name, i)
			}
		}
	}
}

func TestParseCaseInsensitiveAndAliases(t *testing.T) {
	src := `
input(a)
input(b)
output(y)
q = dff(y)
y = nand(a, n1)
n1 = inv(q)
n2 = buff(b)
n3 = vdd()
n4 = and(n2, n3)
`
	c, err := Parse(strings.NewReader(src), "t")
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := c.Lookup("n1")
	if c.Node(n1).Fn != circuit.FnNot {
		t.Fatal("inv alias not mapped to NOT")
	}
	n3, _ := c.Lookup("n3")
	if c.Node(n3).Fn != circuit.FnConst1 {
		t.Fatal("vdd alias not mapped to CONST1")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"garbage", "hello world"},
		{"unknownFn", "INPUT(a)\ny = FOO(a)"},
		{"dffArity", "INPUT(a)\nINPUT(b)\nq = DFF(a, b)"},
		{"undeclared", "y = NOT(missing)"},
		{"emptyDirective", "INPUT()"},
		{"badName", "a(b = NOT(c)"},
		{"duplicate", "INPUT(a)\nINPUT(a)"},
		{"outputUndeclared", "INPUT(a)\nOUTPUT(zz)"},
		{"combCycle", "INPUT(a)\nx = AND(a, y)\ny = AND(a, x)"},
		{"noParen", "y = NOTa"},
	}
	for _, tc := range cases {
		if _, err := Parse(strings.NewReader(tc.src), "t"); err == nil {
			t.Errorf("%s: error not detected", tc.name)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse(strings.NewReader("INPUT(a)\n\nbogus line"), "t")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 3 {
		t.Fatalf("Line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Fatalf("Error() = %q", pe.Error())
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile("/nonexistent/x.bench"); err == nil {
		t.Fatal("missing file not reported")
	}
}

func TestWriteHeaderComment(t *testing.T) {
	c, _ := ParseFile("../../testdata/s27.bench")
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# name: s27\n") {
		t.Fatalf("missing name header:\n%s", out)
	}
	if !strings.Contains(out, "INPUT(G0)") || !strings.Contains(out, "OUTPUT(G17)") {
		t.Fatal("missing I/O directives")
	}
}
