package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"serretime"
	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/eco"
	"serretime/internal/gen"
)

// Workload shapes. Changing any of these changes what the benchmark
// measures, so the pinned digests (digests.json) and the notes in
// README.md must be re-recorded with them.
const (
	// solveGateCap shrinks every Table I substitute of the solve workload
	// to at most this many gates (one solve takes 75-135 ms).
	solveGateCap = 2000
	// serveGateCap does the same for the serve workload (12-28 ms).
	serveGateCap = 500
	// ecoBase is the session netlist of the eco workload, relative to the
	// repository root.
	ecoBase = "testdata/par6000.bench"
	// ecoCycle is the number of deltas between session reopenings.
	ecoCycle = 16
	// ecoFrames and ecoWords are the eco session's analysis options.
	ecoFrames, ecoWords = 3, 1
)

// netlist is one pre-rendered input.
type netlist struct {
	Name  string `json:"name"`
	Bench []byte `json:"bench"`
}

// input is everything a workload process receives. The harness generates
// it from the seed before the process starts, so input generation is
// never part of the measured set-up.
type input struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// Netlists are the solve/serve inputs in seeded order, or the eco
	// base netlist alone.
	Netlists []netlist `json:"netlists"`
	// Deltas is one eco delta cycle.
	Deltas [][]serretime.DeltaOp `json:"deltas,omitempty"`
	// mirrors is the delta generator's netlist after each delta, kept by
	// the harness for the oracle and never sent to the workload process.
	mirrors [][]byte
}

// tableIScale returns the shrink factor that brings a Table I substitute
// to at most gateCap gates.
func tableIScale(name string, gateCap int) (int, error) {
	spec, err := gen.FindTableI(name)
	if err != nil {
		return 0, err
	}
	return (spec.Gates + gateCap - 1) / gateCap, nil
}

// renderTableI renders every Table I substitute at gateCap, in Table I
// order.
func renderTableI(gateCap int) ([]netlist, error) {
	var out []netlist
	for _, name := range serretime.TableICircuits() {
		scale, err := tableIScale(name, gateCap)
		if err != nil {
			return nil, err
		}
		d, err := serretime.NewTableIDesign(name, scale)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := d.WriteBench(&buf); err != nil {
			return nil, err
		}
		out = append(out, netlist{Name: name, Bench: buf.Bytes()})
	}
	return out, nil
}

// loadECOBase reads the eco base netlist in canonical form, together with
// the circuit the delta generator mutates. Both come from the same
// canonical bytes, so the generator's mirror stays node-for-node aligned
// with the session's netlist and a cold solve of the mirror is an exact
// oracle for each delta.
func loadECOBase(root string) ([]byte, *circuit.Circuit, error) {
	raw, err := os.ReadFile(filepath.Join(root, ecoBase))
	if err != nil {
		return nil, nil, err
	}
	c0, err := benchfmt.Parse(bytes.NewReader(raw), filepath.Base(ecoBase))
	if err != nil {
		return nil, nil, err
	}
	var canon bytes.Buffer
	if err := benchfmt.Write(&canon, c0); err != nil {
		return nil, nil, err
	}
	mirror, err := benchfmt.Parse(bytes.NewReader(canon.Bytes()), filepath.Base(ecoBase))
	if err != nil {
		return nil, nil, err
	}
	return canon.Bytes(), mirror, nil
}

// ecoName is the session netlist's file name (it selects the format).
func ecoName() string { return filepath.Base(ecoBase) }

// ecoCycleFor generates the seed's delta cycle with internal/eco and
// returns the canonical base netlist, the deltas, and the generator's
// mirror netlist after each delta.
func ecoCycleFor(root string, seed int64) ([]byte, [][]serretime.DeltaOp, [][]byte, error) {
	base, mirror, err := loadECOBase(root)
	if err != nil {
		return nil, nil, nil, err
	}
	g := eco.NewGen(mirror, seed)
	var deltas [][]serretime.DeltaOp
	var mirrors [][]byte
	for i := 0; i < ecoCycle; i++ {
		ops, err := g.Next()
		if err != nil {
			return nil, nil, nil, err
		}
		b, err := g.Bench()
		if err != nil {
			return nil, nil, nil, err
		}
		deltas, mirrors = append(deltas, ops), append(mirrors, b)
	}
	return base, deltas, mirrors, nil
}

// makeInput generates a workload's inputs from its seed. solve and serve
// run all 21 Table I substitutes in a seeded order, so every seed covers
// the same work and only the order differs; eco replays one seeded delta
// cycle from internal/eco.
func makeInput(root, workload string, seed int64, seconds float64, traced bool) (*input, error) {
	in := &input{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced}
	switch workload {
	case "solve", "serve":
		gateCap := solveGateCap
		if workload == "serve" {
			gateCap = serveGateCap
		}
		all, err := renderTableI(gateCap)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		for _, i := range rng.Perm(len(all)) {
			in.Netlists = append(in.Netlists, all[i])
		}
	case "eco":
		base, deltas, mirrors, err := ecoCycleFor(root, seed)
		if err != nil {
			return nil, err
		}
		in.Netlists = []netlist{{Name: ecoName(), Bench: base}}
		in.Deltas, in.mirrors = deltas, mirrors
	default:
		return nil, fmt.Errorf("unknown workload %q (want solve, serve or eco)", workload)
	}
	return in, nil
}

func writeInput(path string, in *input) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readInput(path string) (*input, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var in input
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &in, nil
}
