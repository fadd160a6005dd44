// ECO mode (-eco netlist.bench): measure the session delta re-solve
// against the cold full solve it must match.
//
// In-process (default): load the netlist, open a serretime.WarmState,
// stream -deltas generated single-gate perturbations through
// RetimeDelta, which solves each mutated netlist with seeded constraint
// discovery, and for every delta also solve the mutated netlist from
// scratch with RetimeRobust. The two results must be byte-identical —
// the cold solve is the oracle, not a baseline estimate — and the
// timing ratio is the headline number. Results print as `go test
// -bench` style lines so `cmd/benchjson` can append them to a
// trajectory file (`make bench-eco` → BENCH_eco.json).
//
// With -serve URL the same stream drives a running serretimed over the
// session API instead: POST /v1/sessions, then one
// POST /v1/sessions/{id}/delta per perturbation, downloading the result
// each time and comparing it against a local cold solve of the
// client-side mirror netlist. This is the CI eco-smoke driver: it
// proves the daemon's session returns exactly what a from-scratch solve
// of the delivered netlist returns.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"serretime"
	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/eco"
)

// ecoOptions builds the solve options both sides of the comparison use.
func ecoOptions(cfg config, eng serretime.EngineKind) serretime.RobustOptions {
	return serretime.RobustOptions{
		RetimeOptions: serretime.RetimeOptions{
			Algorithm: serretime.MinObsWin,
			Analysis:  serretime.AnalysisOptions{Accuracy: cfg.acc, Frames: cfg.frames, SignatureWords: cfg.words},
			Engine:    eng,
			Workers:   cfg.workers,
		},
		Timeout: cfg.timeout,
	}
}

// loadECOBase reads the base netlist once and parses it twice: into the
// Design the solver side works on and into the circuit the delta
// generator starts from. Starting both from the same canonical bytes keeps
// the two node-for-node aligned, which is what makes the cold solve of
// the generator's netlist an exact oracle (see internal/eco).
func loadECOBase(path string) ([]byte, *serretime.Design, *circuit.Circuit, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	// Canonicalize first: node IDs follow declaration order, and the
	// alignment argument needs both sides to parse the *canonical* form
	// (inputs first, then gates in ID order) — the original file may
	// declare in any order.
	c0, err := benchfmt.Parse(bytes.NewReader(raw), filepath.Base(path))
	if err != nil {
		return nil, nil, nil, err
	}
	var canon bytes.Buffer
	if err := benchfmt.Write(&canon, c0); err != nil {
		return nil, nil, nil, err
	}
	d, err := serretime.Parse(bytes.NewReader(canon.Bytes()), filepath.Base(path))
	if err != nil {
		return nil, nil, nil, err
	}
	mirror, err := benchfmt.Parse(bytes.NewReader(canon.Bytes()), filepath.Base(path))
	if err != nil {
		return nil, nil, nil, err
	}
	return canon.Bytes(), d, mirror, nil
}

func retimedECO(res *serretime.RobustResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := res.Retimed.WriteBench(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// coldSolve is the oracle: a from-scratch solve of the mutated netlist.
func coldSolve(ctx context.Context, bench []byte, opt serretime.RobustOptions) ([]byte, error) {
	d, err := serretime.Parse(bytes.NewReader(bench), "eco-oracle.bench")
	if err != nil {
		return nil, err
	}
	res, err := d.RetimeRobust(ctx, opt)
	if err != nil {
		return nil, err
	}
	return retimedECO(res)
}

func runECO(cfg config, eng serretime.EngineKind, stdout, stderr io.Writer) int {
	if cfg.serveURL != "" {
		return runECOServe(cfg, eng, stdout, stderr)
	}
	ctx := context.Background()
	_, d, mirror, err := loadECOBase(cfg.ecoPath)
	if err != nil {
		fmt.Fprintf(stderr, "serbench: eco: %v\n", err)
		return 1
	}
	name := strings.TrimSuffix(filepath.Base(cfg.ecoPath), filepath.Ext(cfg.ecoPath))
	opt := ecoOptions(cfg, eng)

	openStart := time.Now()
	w, err := serretime.NewWarmState(ctx, d, opt)
	if err != nil {
		fmt.Fprintf(stderr, "serbench: eco: open: %v\n", err)
		return 1
	}
	openTime := time.Since(openStart)

	g := eco.NewGen(mirror, cfg.ecoSeed)
	var coldTotal, deltaTotal time.Duration
	for i := 0; i < cfg.ecoDeltas; i++ {
		ops, err := g.Next()
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: %v\n", i, err)
			return 1
		}
		start := time.Now()
		res, err := w.RetimeDelta(ctx, ops, opt)
		deltaTotal += time.Since(start)
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: %v\n", i, err)
			return 1
		}
		got, err := retimedECO(res)
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: %v\n", i, err)
			return 1
		}
		mut, err := g.Bench()
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: %v\n", i, err)
			return 1
		}
		start = time.Now()
		want, err := coldSolve(ctx, mut, opt)
		coldTotal += time.Since(start)
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: oracle: %v\n", i, err)
			return 1
		}
		if !bytes.Equal(got, want) {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: MISMATCH: incremental result differs from the cold solve of the same netlist\n", i)
			return 1
		}
	}

	n := cfg.ecoDeltas
	fmt.Fprintf(stdout, "BenchmarkECO/circuit=%s/phase=open 1 %d ns/op\n", name, openTime.Nanoseconds())
	fmt.Fprintf(stdout, "BenchmarkECO/circuit=%s/phase=cold %d %d ns/op\n", name, n, coldTotal.Nanoseconds()/int64(n))
	fmt.Fprintf(stdout, "BenchmarkECO/circuit=%s/phase=delta %d %d ns/op\n", name, n, deltaTotal.Nanoseconds()/int64(n))
	speedup := float64(coldTotal) / float64(deltaTotal)
	fmt.Fprintf(stderr, "serbench: eco: %s: %d deltas, all bit-identical to cold solves; delta re-solve %.2fx faster than cold (%.0fms vs %.0fms per delta)\n",
		name, n, speedup,
		float64(deltaTotal.Milliseconds())/float64(n), float64(coldTotal.Milliseconds())/float64(n))
	if cfg.ecoMin > 0 && speedup < cfg.ecoMin {
		fmt.Fprintf(stderr, "serbench: eco: speedup %.2fx below the -ecomin %.1fx floor\n", speedup, cfg.ecoMin)
		return 2
	}
	return 0
}

// ecoMsg is the subset of the daemon's session open and delta replies
// the client needs.
type ecoMsg struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

// runECOServe drives a running serretimed's session API with the same
// delta stream and oracle: every delta response's netlist must be
// byte-identical to a local cold solve of the client-side mirror.
func runECOServe(cfg config, eng serretime.EngineKind, stdout, stderr io.Writer) int {
	ctx := context.Background()
	raw, _, mirror, err := loadECOBase(cfg.ecoPath)
	if err != nil {
		fmt.Fprintf(stderr, "serbench: eco: %v\n", err)
		return 1
	}
	name := strings.TrimSuffix(filepath.Base(cfg.ecoPath), filepath.Ext(cfg.ecoPath))
	opt := ecoOptions(cfg, eng)
	base := strings.TrimRight(cfg.serveURL, "/")
	client := &http.Client{Timeout: cfg.serveWait}
	query := fmt.Sprintf("?algorithm=minobswin&frames=%d&words=%d", cfg.frames, cfg.words)
	if cfg.acc == serretime.AccuracyFast {
		query += "&accuracy=fast"
	}

	post := func(url, ctype string, body []byte, out any) (int, error) {
		resp, err := client.Post(url, ctype, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return resp.StatusCode, err
		}
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("bad response: %.200s", data)
		}
		return resp.StatusCode, nil
	}

	var open ecoMsg
	code, err := post(base+"/v1/sessions"+query+"&name="+filepath.Base(cfg.ecoPath), "text/plain", raw, &open)
	if err != nil || code != http.StatusCreated {
		fmt.Fprintf(stderr, "serbench: eco: open session: HTTP %d: %v %s\n", code, err, open.Error)
		return 1
	}
	fmt.Fprintf(stdout, "serbench: eco: session %s open on %s\n", open.ID, base)

	g := eco.NewGen(mirror, cfg.ecoSeed)
	var deltaTotal time.Duration
	for i := 0; i < cfg.ecoDeltas; i++ {
		ops, err := g.Next()
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: %v\n", i, err)
			return 1
		}
		body, err := json.Marshal(struct {
			Ops []serretime.DeltaOp `json:"ops"`
		}{ops})
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: %v\n", i, err)
			return 1
		}
		var dmsg ecoMsg
		start := time.Now()
		code, err := post(base+"/v1/sessions/"+open.ID+"/delta", "application/json", body, &dmsg)
		deltaTotal += time.Since(start)
		if err != nil || code != http.StatusOK {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: HTTP %d: %v %s\n", i, code, err, dmsg.Error)
			return 1
		}
		resp, err := client.Get(base + "/v1/sessions/" + open.ID + "/result")
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: result: %v\n", i, err)
			return 1
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: result: HTTP %d: %v\n", i, resp.StatusCode, err)
			return 1
		}
		mut, err := g.Bench()
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: %v\n", i, err)
			return 1
		}
		want, err := coldSolve(ctx, mut, opt)
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: oracle: %v\n", i, err)
			return 1
		}
		if !bytes.Equal(got, want) {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: MISMATCH: daemon session result differs from the cold solve of the same netlist\n", i)
			return 1
		}
	}
	fmt.Fprintf(stdout, "serbench: eco: %s over %s: %d deltas, every result byte-identical to a cold full solve; mean delta round-trip %.0fms\n",
		name, base, cfg.ecoDeltas, float64(deltaTotal.Milliseconds())/float64(cfg.ecoDeltas))
	return 0
}
