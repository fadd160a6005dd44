// Package bliffmt reads and writes a structural subset of the Berkeley
// Logic Interchange Format (BLIF), the second lingua franca (next to
// .bench) for the ISCAS/ITC benchmark families.
//
// Supported constructs:
//
//	.model <name>
//	.inputs / .outputs  (with '\' line continuation)
//	.latch <in> <out> [<type> <control>] [<init>]
//	.names <in...> <out> followed by a PLA cover
//	.end
//
// Covers are mapped onto the gate library of package circuit. The mapping
// recognizes the standard single-output covers synthesis tools emit for
// simple gates (BUF, NOT, AND, OR, NAND, NOR, XOR, XNOR, constants);
// arbitrary two-level covers are rejected with a descriptive error rather
// than silently mis-read — this is a structural netlist reader, not a
// logic synthesizer.
package bliffmt

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"serretime/internal/circuit"
	"serretime/internal/guard"
)

// ParseError is the toolkit-wide typed parse error; it unwraps to
// guard.ErrParse and carries line info.
type ParseError = guard.ParseError

type namesDecl struct {
	line   int
	inputs []string
	output string
	cover  []coverRow
}

type coverRow struct {
	in  string
	out byte
}

// Parse reads a BLIF netlist. Malformed input yields a *ParseError
// (guard.ErrParse), never a panic.
func Parse(r io.Reader, fallbackName string) (c *circuit.Circuit, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)

	name := fallbackName
	var inputs, outputs []string
	type latch struct {
		in, out string
		line    int
	}
	var latches []latch
	var names []*namesDecl
	var cur *namesDecl

	lineNo := 0
	defer guard.RecoverParse("blif", &lineNo, &err)
	pending := ""
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		// A comment starts at a '#' that begins the line or follows
		// whitespace (identifiers may legally contain '#').
		for i := 0; i < len(line); i++ {
			if line[i] == '#' && (i == 0 || line[i-1] == ' ' || line[i-1] == '\t') {
				line = line[:i]
				break
			}
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, "\\") {
			pending += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		line = pending + line
		pending = ""

		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) >= 2 {
				name = fields[1]
			}
			cur = nil
		case ".inputs":
			inputs = append(inputs, fields[1:]...)
			cur = nil
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
			cur = nil
		case ".latch":
			if len(fields) < 3 {
				return nil, guard.Parsef("blif", lineNo, 0, "malformed .latch")
			}
			latches = append(latches, latch{in: fields[1], out: fields[2], line: lineNo})
			cur = nil
		case ".names":
			if len(fields) < 2 {
				return nil, guard.Parsef("blif", lineNo, 0, "malformed .names")
			}
			cur = &namesDecl{
				line:   lineNo,
				inputs: fields[1 : len(fields)-1],
				output: fields[len(fields)-1],
			}
			names = append(names, cur)
		case ".end":
			cur = nil
		case ".exdc", ".subckt", ".gate", ".mlatch", ".clock":
			return nil, guard.Parsef("blif", lineNo, 0, "unsupported construct %s", fields[0])
		default:
			if strings.HasPrefix(fields[0], ".") {
				// Unknown dot-directives are skipped (e.g. .default_input_arrival).
				cur = nil
				continue
			}
			// A cover row for the current .names.
			if cur == nil {
				return nil, guard.Parsef("blif", lineNo, 0, "stray cover row %q", line)
			}
			var in string
			var out byte
			switch len(fields) {
			case 1:
				if len(cur.inputs) != 0 {
					return nil, guard.Parsef("blif", lineNo, 0, "cover row arity mismatch")
				}
				in, out = "", fields[0][0]
			case 2:
				in, out = fields[0], fields[1][0]
			default:
				return nil, guard.Parsef("blif", lineNo, 0, "malformed cover row")
			}
			if len(in) != len(cur.inputs) {
				return nil, guard.Parsef("blif", lineNo, 0, "cover row width %d for %d inputs", len(in), len(cur.inputs))
			}
			if out != '0' && out != '1' {
				return nil, guard.Parsef("blif", lineNo, 0, "cover output must be 0 or 1")
			}
			cur.cover = append(cur.cover, coverRow{in, out})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, guard.Parsef("blif", lineNo, 0, "read: %v", err)
	}

	b := circuit.NewBuilder(name)
	for _, in := range inputs {
		b.PI(in)
	}
	for _, l := range latches {
		b.DFF(l.out, l.in)
	}
	for _, nd := range names {
		fn, perm, err := mapCover(nd)
		if err != nil {
			return nil, err
		}
		ins := make([]string, len(perm))
		for i, p := range perm {
			ins[i] = nd.inputs[p]
		}
		b.Gate(nd.output, fn, ins...)
	}
	for _, out := range outputs {
		b.PO(out)
	}
	c, err = b.Build()
	if err != nil {
		return nil, guard.Parsef("blif", 0, 0, "%v", err)
	}
	return c, nil
}

// mapCover recognizes the cover of a simple gate. It returns the gate
// function and the input order to use (identity except when irrelevant).
func mapCover(nd *namesDecl) (circuit.Func, []int, error) {
	n := len(nd.inputs)
	ident := make([]int, n)
	for i := range ident {
		ident[i] = i
	}
	fail := func(msg string) (circuit.Func, []int, error) {
		return 0, nil, guard.Parsef("blif", nd.line, 0, ".names %s: %s", nd.output, msg)
	}
	// Constants.
	if n == 0 {
		if len(nd.cover) == 0 {
			return circuit.FnConst0, nil, nil
		}
		if len(nd.cover) == 1 && nd.cover[0].out == '1' {
			return circuit.FnConst1, nil, nil
		}
		return fail("unrecognized constant cover")
	}
	// All rows must share the same output polarity (single-phase covers).
	onSet := nd.cover[0].out == '1'
	for _, row := range nd.cover {
		if (row.out == '1') != onSet {
			return fail("mixed-polarity cover")
		}
	}
	rows := make([]string, len(nd.cover))
	for i, r := range nd.cover {
		rows[i] = r.in
	}
	sort.Strings(rows)

	all := func(s string, c byte) bool {
		for i := 0; i < len(s); i++ {
			if s[i] != c {
				return false
			}
		}
		return true
	}
	// Single-row covers.
	if len(rows) == 1 {
		r := rows[0]
		switch {
		case n == 1 && r == "1" && onSet:
			return circuit.FnBuf, ident, nil
		case n == 1 && r == "0" && onSet:
			return circuit.FnNot, ident, nil
		case all(r, '1') && onSet:
			return circuit.FnAnd, ident, nil
		case all(r, '0') && onSet:
			return circuit.FnNor, ident, nil
		case all(r, '1') && !onSet:
			return circuit.FnNand, ident, nil
		case all(r, '0') && !onSet:
			return circuit.FnOr, ident, nil
		}
		return fail(fmt.Sprintf("unrecognized single-row cover %q", r))
	}
	// n rows, each with exactly one non-dash position: OR (on-set) /
	// NOR (off-set with 1s) etc.
	oneHot := func(c byte) bool {
		seen := make([]bool, n)
		for _, r := range rows {
			pos := -1
			for i := 0; i < n; i++ {
				switch r[i] {
				case '-':
				case c:
					if pos >= 0 {
						return false
					}
					pos = i
				default:
					return false
				}
			}
			if pos < 0 || seen[pos] {
				return false
			}
			seen[pos] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if len(rows) == n {
		switch {
		case oneHot('1') && onSet:
			return circuit.FnOr, ident, nil
		case oneHot('0') && onSet:
			return circuit.FnNand, ident, nil
		case oneHot('1') && !onSet:
			return circuit.FnNor, ident, nil
		case oneHot('0') && !onSet:
			return circuit.FnAnd, ident, nil
		}
	}
	// XOR/XNOR: all 2^(n-1) odd- or even-parity minterms.
	if parity, ok := parityCover(rows, n); ok {
		if parity == onSet {
			// odd parity on-set = XOR (for the convention parity=true odd)
			return circuit.FnXor, ident, nil
		}
		return circuit.FnXnor, ident, nil
	}
	return fail(fmt.Sprintf("unrecognized %d-row cover (not a simple gate)", len(rows)))
}

// parityCover reports whether rows enumerate exactly the odd-parity
// (true) or even-parity (false) minterms of n variables.
func parityCover(rows []string, n int) (bool, bool) {
	if n < 2 || len(rows) != 1<<(n-1) {
		return false, false
	}
	var odd, even int
	for _, r := range rows {
		ones := 0
		for i := 0; i < n; i++ {
			switch r[i] {
			case '1':
				ones++
			case '0':
			default:
				return false, false // dashes cannot appear in parity covers
			}
		}
		if ones%2 == 1 {
			odd++
		} else {
			even++
		}
	}
	if odd == len(rows) {
		return true, true
	}
	if even == len(rows) {
		return false, true
	}
	return false, false
}

// Write emits the circuit as BLIF, using canonical covers for each gate
// function.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", c.Name)
	fmt.Fprint(bw, ".inputs")
	for _, id := range c.PIs() {
		fmt.Fprintf(bw, " %s", c.Node(id).Name)
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".outputs")
	for _, id := range c.POs() {
		fmt.Fprintf(bw, " %s", c.Node(id).Name)
	}
	fmt.Fprintln(bw)
	for i := 0; i < c.NumNodes(); i++ {
		nd := c.Node(circuit.NodeID(i))
		switch nd.Kind {
		case circuit.KindDFF:
			fmt.Fprintf(bw, ".latch %s %s re clk 2\n", c.Node(nd.Fanin[0]).Name, nd.Name)
		case circuit.KindGate:
			fmt.Fprint(bw, ".names")
			for _, f := range nd.Fanin {
				fmt.Fprintf(bw, " %s", c.Node(f).Name)
			}
			fmt.Fprintf(bw, " %s\n", nd.Name)
			writeCover(bw, nd.Fn, len(nd.Fanin))
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

func writeCover(w io.Writer, fn circuit.Func, n int) {
	rep := func(c byte) string { return strings.Repeat(string(c), n) }
	switch fn {
	case circuit.FnConst0:
		// empty cover
	case circuit.FnConst1:
		fmt.Fprintln(w, "1")
	case circuit.FnBuf:
		fmt.Fprintln(w, "1 1")
	case circuit.FnNot:
		fmt.Fprintln(w, "0 1")
	case circuit.FnAnd:
		fmt.Fprintf(w, "%s 1\n", rep('1'))
	case circuit.FnNor:
		fmt.Fprintf(w, "%s 1\n", rep('0'))
	case circuit.FnNand:
		fmt.Fprintf(w, "%s 0\n", rep('1'))
	case circuit.FnOr:
		fmt.Fprintf(w, "%s 0\n", rep('0'))
	case circuit.FnXor, circuit.FnXnor:
		// Enumerate the on-set minterms.
		want := 1
		if fn == circuit.FnXnor {
			want = 0
		}
		for m := 0; m < 1<<n; m++ {
			ones := 0
			row := make([]byte, n)
			for i := 0; i < n; i++ {
				if m&(1<<i) != 0 {
					row[i] = '1'
					ones++
				} else {
					row[i] = '0'
				}
			}
			if ones%2 == want {
				fmt.Fprintf(w, "%s 1\n", row)
			}
		}
	}
}
