package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"
)

// defaultSeed is the eco seed whose per-delta digests are pinned.
const defaultSeed = 1

// pinnedJSON holds result digests recorded from the unmodified program
// with `perfbench pin` (see README.md).
//
//go:embed digests.json
var pinnedJSON []byte

// pins are the recorded result digests.
type pins struct {
	// Solve and Serve map each Table I substitute, at the workload's
	// scale, to the SHA-256 of its retimed netlist.
	Solve map[string]string `json:"solve"`
	Serve map[string]string `json:"serve"`
	// EcoOpen is the digest of a session opened on the eco base netlist.
	EcoOpen string `json:"eco_open"`
	// EcoDefaultSeed lists the digest after each delta of the default
	// seed's cycle.
	EcoDefaultSeed []string `json:"eco_default_seed"`
}

func loadPins() (*pins, error) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return &p, nil
}

// parallel runs fn(i) for i in [0, n) on two goroutines, the host's CPU
// count, and returns the first error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				errs[i] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// oracle returns the digest an operation's output must have; false
// means the operation is not one the workload can produce.
type oracle func(op opRecord) (string, bool)

// wrong explains why op's output is incorrect, or returns "".
func (o oracle) wrong(op opRecord) string {
	want, ok := o(op)
	if !ok || op.Digest != want {
		return fmt.Sprintf("%s %d (cycle %d): result %.12s does not match the oracle's %.12s", op.Kind, op.Input, op.Cycle, op.Digest, want)
	}
	return ""
}

// newOracle builds the workload's output oracle and runs its
// verification pass, outside the timed runs:
//
//   - solve and serve compare every result with the pinned digests of all
//     21 inputs, so any seed is covered; solve also re-solves each input
//     once with RetimeOptions.Verify (sequential-equivalence
//     co-simulation) and checks that result against its pin too;
//   - eco cold-solves the delta generator's mirror netlist after each
//     delta of the cycle, the same oracle `serbench -eco` uses, and
//     requires every cycle of the run to reproduce those digests; for the
//     default seed the cold digests must also equal the pinned ones.
func newOracle(ctx context.Context, in *input) (oracle, error) {
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	switch in.Workload {
	case "solve", "serve":
		pinned := p.Solve
		if in.Workload == "serve" {
			pinned = p.Serve
		}
		if in.Workload == "solve" {
			err := parallel(len(in.Netlists), func(i int) error {
				n := in.Netlists[i]
				opt := solveOptions(nil)
				opt.Verify = true
				_, out, _, err := solveNetlist(ctx, n, opt)
				if err != nil {
					return fmt.Errorf("verify %s: %w", n.Name, err)
				}
				if got := digest(out); got != pinned[n.Name] {
					return fmt.Errorf("verify %s: result %.12s, pinned %.12s", n.Name, got, pinned[n.Name])
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		return func(op opRecord) (string, bool) {
			if op.Input < 0 || op.Input >= len(in.Netlists) {
				return "", false
			}
			d, ok := pinned[in.Netlists[op.Input].Name]
			return d, ok
		}, nil
	case "eco":
		cold := make([]string, len(in.mirrors))
		err := parallel(len(in.mirrors), func(i int) error {
			_, out, _, err := solveNetlist(ctx, netlist{Name: "eco-oracle", Bench: in.mirrors[i]}, ecoOptions())
			if err != nil {
				return fmt.Errorf("cold solve after delta %d: %w", i, err)
			}
			cold[i] = digest(out)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if in.Seed == defaultSeed {
			for i, d := range cold {
				if i >= len(p.EcoDefaultSeed) || d != p.EcoDefaultSeed[i] {
					return nil, fmt.Errorf("cold solve after delta %d: %.12s differs from the pinned digest", i, d)
				}
			}
		}
		return func(op opRecord) (string, bool) {
			switch op.Kind {
			case "delta":
				if op.Input < 0 || op.Input >= len(cold) {
					return "", false
				}
				return cold[op.Input], true
			case "open":
				return p.EcoOpen, true
			case "close":
				return "", true
			}
			return "", false
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", in.Workload)
}
