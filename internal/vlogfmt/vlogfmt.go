// Package vlogfmt reads and writes gate-level structural Verilog in the
// classic primitive-instantiation dialect used by the ISCAS/ITC benchmark
// distributions:
//
//	module s27 (G0, G1, G17);
//	  input G0, G1;
//	  output G17;
//	  wire n1;
//	  nand NAND2_1 (n1, G0, G1);
//	  not  NOT1_1  (G17, n1);
//	  dff  DFF_1   (q, d);     // non-standard but conventional in netlists
//	endmodule
//
// Primitive gates follow Verilog's convention: output first, then inputs.
// Supported primitives: and, nand, or, nor, xor, xnor, not, buf, plus the
// netlist convention dff(q, d). Behavioural constructs are rejected.
package vlogfmt

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"serretime/internal/circuit"
	"serretime/internal/guard"
)

// ParseError is the toolkit-wide typed parse error; it unwraps to
// guard.ErrParse and carries the statement-start line.
type ParseError = guard.ParseError

var primOf = map[string]circuit.Func{
	"and": circuit.FnAnd, "nand": circuit.FnNand,
	"or": circuit.FnOr, "nor": circuit.FnNor,
	"xor": circuit.FnXor, "xnor": circuit.FnXnor,
	"not": circuit.FnNot, "buf": circuit.FnBuf,
}

var nameOfFn = map[circuit.Func]string{
	circuit.FnAnd: "and", circuit.FnNand: "nand",
	circuit.FnOr: "or", circuit.FnNor: "nor",
	circuit.FnXor: "xor", circuit.FnXnor: "xnor",
	circuit.FnNot: "not", circuit.FnBuf: "buf",
}

// Parse reads a structural Verilog netlist (one module). Malformed
// input yields a *ParseError (guard.ErrParse), never a panic.
func Parse(r io.Reader, fallbackName string) (c *circuit.Circuit, err error) {
	// Tokenize into ';'-terminated statements, tracking line numbers.
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	type stmt struct {
		text string
		line int
	}
	var stmts []stmt
	var cur strings.Builder
	curLine := 0
	lineNo := 0
	defer guard.RecoverParse("verilog", &lineNo, &err)
	inBlockComment := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if inBlockComment {
			if i := strings.Index(line, "*/"); i >= 0 {
				line = line[i+2:]
				inBlockComment = false
			} else {
				continue
			}
		}
		for {
			i := strings.Index(line, "/*")
			if i < 0 {
				break
			}
			j := strings.Index(line[i+2:], "*/")
			if j < 0 {
				line = line[:i]
				inBlockComment = true
				break
			}
			line = line[:i] + " " + line[i+2+j+2:]
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		for {
			line = strings.TrimSpace(line)
			if line == "" {
				break
			}
			if cur.Len() == 0 {
				curLine = lineNo
			}
			if i := strings.IndexByte(line, ';'); i >= 0 {
				cur.WriteString(line[:i])
				stmts = append(stmts, stmt{cur.String(), curLine})
				cur.Reset()
				line = line[i+1:]
				continue
			}
			// "endmodule" has no semicolon.
			if strings.TrimSpace(line) == "endmodule" && cur.Len() == 0 {
				stmts = append(stmts, stmt{"endmodule", lineNo})
				line = ""
				continue
			}
			cur.WriteString(line)
			cur.WriteByte(' ')
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, guard.Parsef("verilog", lineNo, 0, "read: %v", err)
	}
	if strings.TrimSpace(cur.String()) != "" {
		stmts = append(stmts, stmt{cur.String(), curLine})
	}

	b := circuit.NewBuilder(fallbackName)
	declared := false
	var outputs []string
	for _, st := range stmts {
		fields := strings.FieldsFunc(st.text, func(r rune) bool {
			return r == ' ' || r == '\t' || r == ',' || r == '(' || r == ')'
		})
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "module":
			if len(fields) < 2 {
				return nil, guard.Parsef("verilog", st.line, 0, "module without a name")
			}
			b.SetName(fields[1])
			declared = true
		case "endmodule":
		case "input":
			for _, n := range fields[1:] {
				b.PI(n)
			}
		case "output":
			outputs = append(outputs, fields[1:]...)
		case "wire", "reg", "tri":
			// Net declarations carry no structure here.
		case "dff", "DFF":
			if len(fields) < 4 {
				return nil, guard.Parsef("verilog", st.line, 0, "dff needs (q, d)")
			}
			// fields[1] is the instance name.
			b.DFF(fields[2], fields[3])
		case "assign":
			return nil, guard.Parsef("verilog", st.line, 0, "behavioural assign not supported (structural netlists only)")
		default:
			fn, ok := primOf[fields[0]]
			if !ok {
				return nil, guard.Parsef("verilog", st.line, 0, "unknown construct %q", fields[0])
			}
			if len(fields) < 4 {
				return nil, guard.Parsef("verilog", st.line, 0, "%s needs an instance name, an output and inputs", fields[0])
			}
			out := fields[2]
			ins := fields[3:]
			b.Gate(out, fn, ins...)
		}
	}
	if !declared {
		return nil, guard.Parsef("verilog", 1, 0, "no module declaration")
	}
	for _, o := range outputs {
		b.PO(o)
	}
	c, err = b.Build()
	if err != nil {
		return nil, guard.Parsef("verilog", 0, 0, "%v", err)
	}
	return c, nil
}

// sanitize maps a net name onto a legal Verilog identifier (the generator
// and the rebuilder use '$' and '.' freely). Verilog escapes would also
// work but read terribly.
func sanitize(name string) string {
	var sb strings.Builder
	for _, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	s := sb.String()
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		s = "n" + s
	}
	return s
}

// Write emits the circuit as structural Verilog. Net names are sanitized
// to legal identifiers; collisions after sanitizing get numeric suffixes.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	names := make(map[circuit.NodeID]string, c.NumNodes())
	used := make(map[string]bool, c.NumNodes())
	for i := 0; i < c.NumNodes(); i++ {
		id := circuit.NodeID(i)
		n := sanitize(c.Node(id).Name)
		for used[n] {
			n += "_"
		}
		used[n] = true
		names[id] = n
	}

	var ports []string
	for _, pi := range c.PIs() {
		ports = append(ports, names[pi])
	}
	for _, po := range c.POs() {
		ports = append(ports, names[po])
	}
	fmt.Fprintf(bw, "module %s (%s);\n", sanitize(c.Name), strings.Join(ports, ", "))
	for _, pi := range c.PIs() {
		fmt.Fprintf(bw, "  input %s;\n", names[pi])
	}
	for _, po := range c.POs() {
		fmt.Fprintf(bw, "  output %s;\n", names[po])
	}
	isPort := make(map[circuit.NodeID]bool)
	for _, pi := range c.PIs() {
		isPort[pi] = true
	}
	for _, po := range c.POs() {
		isPort[po] = true
	}
	for i := 0; i < c.NumNodes(); i++ {
		id := circuit.NodeID(i)
		if c.Node(id).Kind != circuit.KindPI && !isPort[id] {
			fmt.Fprintf(bw, "  wire %s;\n", names[id])
		}
	}
	inst := 0
	for i := 0; i < c.NumNodes(); i++ {
		id := circuit.NodeID(i)
		nd := c.Node(id)
		switch nd.Kind {
		case circuit.KindDFF:
			inst++
			fmt.Fprintf(bw, "  dff DFF_%d (%s, %s);\n", inst, names[id], names[nd.Fanin[0]])
		case circuit.KindGate:
			inst++
			prim, ok := nameOfFn[nd.Fn]
			if !ok {
				// Constants become tied buffers via supply nets; keep it
				// simple with 1'b0/1'b1 continuous drivers is behavioural,
				// so emit a primitive-compatible trick: buf of itself is
				// illegal — reject instead.
				return fmt.Errorf("verilog: cannot emit %s gate %q structurally", nd.Fn, nd.Name)
			}
			args := make([]string, 0, len(nd.Fanin)+1)
			args = append(args, names[id])
			for _, f := range nd.Fanin {
				args = append(args, names[f])
			}
			fmt.Fprintf(bw, "  %s %s_%d (%s);\n", prim, strings.ToUpper(prim), inst, strings.Join(args, ", "))
		}
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}
