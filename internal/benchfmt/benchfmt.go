// Package benchfmt reads and writes the ISCAS89 ".bench" netlist format.
//
// The format is line-oriented:
//
//	# comment
//	INPUT(G0)
//	OUTPUT(G17)
//	G10 = DFF(G14)
//	G11 = NOT(G5)
//	G14 = NAND(G0, G10)
//
// Gate keywords are case-insensitive. Supported functions: AND, NAND, OR,
// NOR, XOR, XNOR, NOT, BUF/BUFF, DFF, plus CONST0/CONST1 ("GND"/"VDD" are
// accepted as aliases). Net names may contain any non-whitespace characters
// except '(', ')', ',' and '='.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"serretime/internal/circuit"
	"serretime/internal/guard"
)

// ParseError is the toolkit-wide typed parse error; it unwraps to
// guard.ErrParse and carries line (and, when known, column) info.
type ParseError = guard.ParseError

// perr is a position-annotated message produced inside a line; the
// caller adds the line number. col is 1-based, 0 = unknown.
type perr struct {
	col int
	msg string
}

func (e *perr) Error() string { return e.msg }

func errAt(col int, msgf string, args ...any) *perr {
	return &perr{col: col, msg: fmt.Sprintf(msgf, args...)}
}

var funcByName = map[string]circuit.Func{
	"AND": circuit.FnAnd, "NAND": circuit.FnNand,
	"OR": circuit.FnOr, "NOR": circuit.FnNor,
	"XOR": circuit.FnXor, "XNOR": circuit.FnXnor,
	"NOT": circuit.FnNot, "INV": circuit.FnNot,
	"BUF": circuit.FnBuf, "BUFF": circuit.FnBuf,
	"CONST0": circuit.FnConst0, "GND": circuit.FnConst0,
	"CONST1": circuit.FnConst1, "VDD": circuit.FnConst1,
}

var nameByFunc = map[circuit.Func]string{
	circuit.FnAnd: "AND", circuit.FnNand: "NAND",
	circuit.FnOr: "OR", circuit.FnNor: "NOR",
	circuit.FnXor: "XOR", circuit.FnXnor: "XNOR",
	circuit.FnNot: "NOT", circuit.FnBuf: "BUFF",
	circuit.FnConst0: "CONST0", circuit.FnConst1: "CONST1",
}

// Parse reads a .bench netlist. The design name is taken from the first
// "# name: x" comment if present, else left as the given fallback.
// Malformed input yields a *ParseError (guard.ErrParse), never a panic.
func Parse(r io.Reader, fallbackName string) (c *circuit.Circuit, err error) {
	b := circuit.NewBuilder(fallbackName)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	named := false
	defer guard.RecoverParse("bench", &lineNo, &err)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// A "# name: x" comment names the design (WriteBench emits
			// one), overriding the filename-derived fallback: round-
			// tripping must preserve names the filename cannot carry,
			// e.g. "s13207/100". Ordinary comments stay cosmetic so they
			// never fragment the service's content-addressed cache.
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line[1:]), "name:"); ok && !named {
				if name := strings.TrimSpace(rest); name != "" {
					b.SetName(name)
					named = true
				}
			}
			continue
		}
		if perr := parseLine(b, line); perr != nil {
			return nil, guard.Parsef("bench", lineNo, perr.col, "%s", perr.msg)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, guard.Parsef("bench", lineNo, 0, "read: %v", err)
	}
	c, err = b.Build()
	if err != nil {
		return nil, guard.Parsef("bench", 0, 0, "%v", err)
	}
	return c, nil
}

func parseLine(b *circuit.Builder, line string) *perr {
	upper := strings.ToUpper(line)
	switch {
	case strings.HasPrefix(upper, "INPUT"):
		name, perr := parseDirectiveArg(line)
		if perr != nil {
			return perr
		}
		b.PI(name)
		return nil
	case strings.HasPrefix(upper, "OUTPUT"):
		name, perr := parseDirectiveArg(line)
		if perr != nil {
			return perr
		}
		b.PO(name)
		return nil
	}
	// Assignment: name = FN(args...)
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return errAt(1, "unrecognized statement %q", line)
	}
	lhs := strings.TrimSpace(line[:eq])
	if lhs == "" || strings.ContainsAny(lhs, "(),") {
		return errAt(1, "bad net name %q", lhs)
	}
	rhs := strings.TrimSpace(line[eq+1:])
	rhsCol := eq + 2 + (len(line[eq+1:]) - len(strings.TrimLeft(line[eq+1:], " \t")))
	open := strings.IndexByte(rhs, '(')
	closeIdx := strings.LastIndexByte(rhs, ')')
	if open < 0 || closeIdx < open {
		return errAt(rhsCol, "bad gate expression %q", rhs)
	}
	fnName := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	var args []string
	for _, a := range strings.Split(rhs[open+1:closeIdx], ",") {
		a = strings.TrimSpace(a)
		if a != "" {
			args = append(args, a)
		}
	}
	if fnName == "DFF" || fnName == "FF" || fnName == "LATCH" {
		if len(args) != 1 {
			return errAt(rhsCol, "DFF %q needs exactly one input, got %d", lhs, len(args))
		}
		b.DFF(lhs, args[0])
		return nil
	}
	fn, ok := funcByName[fnName]
	if !ok {
		return errAt(rhsCol, "unknown gate function %q", fnName)
	}
	b.Gate(lhs, fn, args...)
	return nil
}

func parseDirectiveArg(line string) (string, *perr) {
	open := strings.IndexByte(line, '(')
	closeIdx := strings.LastIndexByte(line, ')')
	if open < 0 || closeIdx < open {
		return "", errAt(1, "bad directive %q", line)
	}
	name := strings.TrimSpace(line[open+1 : closeIdx])
	if name == "" {
		return "", errAt(open+2, "empty net name in %q", line)
	}
	return name, nil
}

// ParseFile reads a .bench file; the design name is the file's base name
// without a lower-case .bench extension. Programs load netlists with
// serretime.Load, which takes every format and any case; tests of
// packages the root package imports read testdata through ParseFile.
func ParseFile(path string) (*circuit.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	base = strings.TrimSuffix(base, ".bench")
	return Parse(f, base)
}

// Write emits the circuit in .bench syntax: inputs, outputs, then DFFs and
// gates in node order.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# name: %s\n", c.Name)
	pis, pos, gates, dffs := c.Counts()
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates, %d flip-flops\n", pis, pos, gates, dffs)
	for _, id := range c.PIs() {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Node(id).Name)
	}
	for _, id := range c.POs() {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Node(id).Name)
	}
	for i := 0; i < c.NumNodes(); i++ {
		nd := c.Node(circuit.NodeID(i))
		switch nd.Kind {
		case circuit.KindPI:
			continue
		case circuit.KindDFF:
			fmt.Fprintf(bw, "%s = DFF(%s)\n", nd.Name, c.Node(nd.Fanin[0]).Name)
		case circuit.KindGate:
			names := make([]string, len(nd.Fanin))
			for j, f := range nd.Fanin {
				names[j] = c.Node(f).Name
			}
			fmt.Fprintf(bw, "%s = %s(%s)\n", nd.Name, nameByFunc[nd.Fn], strings.Join(names, ", "))
		}
	}
	return bw.Flush()
}
