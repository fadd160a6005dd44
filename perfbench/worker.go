package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// report is what the workload process hands back to the harness.
type report struct {
	Ops []opRecord `json:"ops"`
	// ElapsedNS is the wall time of the untraced timed phase.
	ElapsedNS int64 `json:"elapsed_ns"`
	// PeakRSSKB is the process's sustained peak resident memory during
	// the timed phase (see rssSampler.finish).
	PeakRSSKB float64 `json:"peak_rss_kb"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// workerMain is the workload process: it boots and warms up the program,
// prints "ready" on stdout (the harness's setup_s ends there), runs the
// timed closed loop and writes its report. With -setup-only it stops
// after "ready".
func workerMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	inPath := fs.String("input", "", "input file written by the harness")
	repPath := fs.String("report", "", "report file to write")
	dir := fs.String("dir", "", "directory for the program's data")
	setupOnly := fs.Bool("setup-only", false, "stop after set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	in, err := readInput(*inPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench worker: %v\n", err)
		return 1
	}
	ctx := context.Background()
	w, err := newWorkload(in, *dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench worker: %v\n", err)
		return 1
	}
	defer func() {
		if err := w.close(ctx); err != nil {
			fmt.Fprintf(stderr, "perfbench worker: shutdown: %v\n", err)
		}
	}()
	if err := w.setup(ctx); err != nil {
		fmt.Fprintf(stderr, "perfbench worker: setup: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	if *setupOnly {
		return 0
	}
	rep := runTimed(ctx, w, in)
	b, err := json.Marshal(rep)
	if err == nil {
		err = os.WriteFile(*repPath, b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench worker: report: %v\n", err)
		return 1
	}
	return 0
}

// runTimed runs the timed phase. An untraced run measures for the whole
// duration. A traced run measures its first half untraced, for the
// tracing-overhead baseline and the allocation readings, and its second
// half traced.
func runTimed(ctx context.Context, w workload, in *input) *report {
	dur := time.Duration(in.Seconds * float64(time.Second))
	rep := &report{}
	if !in.Traced {
		rss := sampleRSS(50 * time.Millisecond)
		ops, elapsed := closedLoop(ctx, w, dur)
		rep.Ops, rep.ElapsedNS, rep.PeakRSSKB = ops, int64(elapsed), rss.finish()
		return rep
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, elapsed := closedLoop(ctx, w, dur/2)
	runtime.ReadMemStats(&m1)
	w.trace()
	traced, _ := closedLoop(ctx, w, dur/2)
	for i := range traced {
		traced[i].Traced = true
	}
	rep.Ops, rep.ElapsedNS = append(plain, traced...), int64(elapsed)
	rep.Layers = w.layers(traced)
	if n := float64(len(plain)); n > 0 {
		rep.Layers["go.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / n
		rep.Layers["go.gc_cycles"] = float64(m1.NumGC-m0.NumGC) / n
	}
	return rep
}

// closedLoop runs the workload's clients until d has passed; each client
// sends its next operation only after the previous one completed.
// Operations started before the deadline finish and count.
func closedLoop(ctx context.Context, w workload, d time.Duration) ([]opRecord, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]opRecord, w.clients())
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[c] = append(per[c], w.op(ctx, c))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var ops []opRecord
	for _, p := range per {
		ops = append(ops, p...)
	}
	return ops, elapsed
}

// rssKB reads the process's resident memory (VmRSS) from
// /proc/self/status, 0 when unavailable.
func rssKB() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if v, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmRSS:")); ok {
			kb, err := strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(v), []byte(" kB"))), 10, 64)
			if err == nil {
				return kb
			}
		}
	}
	return 0
}

// rssSampler records the process's resident memory (VmRSS) at a fixed
// interval.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var samples []float64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- samples
				return
			case <-tick.C:
				samples = append(samples, float64(rssKB()))
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the sustained peak: the 95th
// percentile of the samples, in kB. The absolute high-water mark (VmHWM)
// catches momentary coincidences of the two serve solves' GC cycles and
// moved by 15% between runs of identical code; the 95th percentile moved
// by 2%.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	samples := <-s.done
	sort.Float64s(samples)
	return percentile(samples, 0.95)
}
