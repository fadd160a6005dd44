package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// setupRuns is how many fresh workload processes an untraced run boots;
// setup_s is the median of their set-up times.
const setupRuns = 5

// runBudget bounds a whole benchmark invocation.
const runBudget = 170 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// drive runs one benchmark invocation: generate the inputs from the seed,
// boot fresh workload processes (setupRuns of them, the last one running
// the timed phase), verify every operation's output and compute the
// metrics.
func drive(root, workload string, seed int64, seconds float64, traced bool, stderr io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	in, err := makeInput(root, workload, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	inPath := filepath.Join(dir, "input.json")
	if err := writeInput(inPath, in); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}

	runs := setupRuns
	if traced {
		runs = 1
	}
	var setups []float64
	repPath := filepath.Join(dir, "report.json")
	for k := 0; k < runs; k++ {
		data := filepath.Join(dir, fmt.Sprintf("data-%d", k))
		args := []string{"worker", "-input", inPath, "-report", repPath, "-dir", data}
		if k < runs-1 {
			args = append(args, "-setup-only")
		}
		setup, err := spawn(ctx, exe, args, stderr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	raw, err := os.ReadFile(repPath)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	orc, err := newOracle(ctx, in)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: verification pass failed: %v\n", err)
		res.Correct = false
	}
	bad := make([]bool, len(rep.Ops))
	for i, op := range rep.Ops {
		why := op.Err
		if why == "" && orc != nil {
			why = orc.wrong(op)
		}
		if why != "" {
			bad[i] = true
			res.Failed++
			if res.Failed <= 5 {
				fmt.Fprintf(stderr, "perfbench: failed operation: %s\n", why)
			}
		}
	}
	res.Attempted = len(rep.Ops)
	if res.Failed > 0 || orc == nil {
		res.Correct = false
	}

	if traced {
		var plain, tr []float64
		for i, op := range rep.Ops {
			if bad[i] {
				continue
			}
			if op.Traced {
				tr = append(tr, ms(time.Duration(op.LatNS)))
			} else {
				plain = append(plain, ms(time.Duration(op.LatNS)))
			}
		}
		rep.Layers["trace.overhead_ms"] = median(tr) - median(plain)
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: rep.Layers[d.name], Unit: d.unit}
		}
	} else {
		s, err := summarize(rep.Ops, func(i int) bool { return bad[i] }, time.Duration(rep.ElapsedNS))
		if err != nil {
			return nil, err
		}
		values := map[string]float64{
			"setup_s":     median(setups),
			"op_p50_ms":   s.P50MS,
			"op_p90_ms":   s.P90MS,
			"ops_per_s":   s.OpsPerS,
			"peak_rss_mb": rep.PeakRSSKB / 1024,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is not finite\n", name)
			m.Value = -1
			res.Metrics[name] = m
			res.Correct = false
		}
	}
	return res, nil
}

// spawn starts one workload process and returns its set-up time: from
// just before the process starts until it prints "ready". It waits for
// the process to exit.
func spawn(ctx context.Context, exe string, args []string, stderr io.Writer) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	var setup time.Duration
	sc := bufio.NewScanner(out)
	if sc.Scan() && strings.TrimSpace(sc.Text()) == "ready" {
		setup = time.Since(t0)
	}
	_, _ = io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("workload process: %w", err)
	}
	if setup == 0 {
		return 0, fmt.Errorf("workload process exited without finishing set-up")
	}
	return setup, nil
}
