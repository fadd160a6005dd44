package main

// serbench -serve: a load-generator client for the serretimed daemon.
// Instead of solving circuits in-process, the sweep's netlists are
// POSTed to a running service in a concurrent burst; every job is polled
// to completion and its result downloaded. The client verifies what the
// service promises: no accepted job is dropped, repeated submissions of
// one payload return byte-identical retimed netlists, and resubmissions
// hit the content-addressed cache (disposition "coalesced" or "cached").
// Exit status: 0 = every job solved and deterministic, 1 = any failure,
// 2 = client/usage error.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"serretime"
	"serretime/internal/gen"
	"serretime/internal/telemetry"
)

// backoff yields capped, jittered exponential waits for retry loops with
// no explicit Retry-After hint: 100ms doubling to a 2s cap, each wait
// drawn from [d/2, 3d/2) so a burst of blocked clients doesn't retry in
// lockstep against a server that just shed them all at once.
type backoff struct {
	d time.Duration
}

func (b *backoff) next() time.Duration {
	switch {
	case b.d == 0:
		b.d = 100 * time.Millisecond
	case b.d < 2*time.Second:
		b.d = min(b.d*2, 2*time.Second)
	}
	return b.d/2 + time.Duration(rand.Int63n(int64(b.d)))
}

// sleepCtx waits d or until the context ends, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// findTableIScale mirrors the -scale auto policy of the in-process
// sweep: shrink each circuit to at most autoCap gates.
func findTableIScale(name string, autoCap int) (int, error) {
	spec, err := gen.FindTableI(name)
	if err != nil {
		return 0, err
	}
	return (spec.Gates + autoCap - 1) / autoCap, nil
}

// jobMsg mirrors the service's submit/status JSON responses.
type jobMsg struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Status      string `json:"status"`
	Tier        string `json:"tier"`
	Disposition string `json:"disposition"`
	Error       string `json:"error"`
	ErrorClass  string `json:"error_class"`
	TraceID     string `json:"trace_id"`
}

// payload is one submittable netlist.
type payload struct {
	name string // filename carrying the format, e.g. par2500.bench
	body []byte
}

// servePayloads builds the burst's netlists: the -in files read from
// disk, or Table I synthetics rendered to canonical .bench.
func servePayloads(cfg config) ([]payload, error) {
	var out []payload
	if cfg.inFiles != "" {
		for _, p := range strings.Split(cfg.inFiles, ",") {
			d, err := serretime.Load(p)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := d.WriteBench(&buf); err != nil {
				return nil, err
			}
			base := filepath.Base(p)
			out = append(out, payload{name: strings.TrimSuffix(base, filepath.Ext(base)) + ".bench", body: buf.Bytes()})
		}
		return out, nil
	}
	names := serretime.TableICircuits()
	if cfg.circuits != "" {
		names = strings.Split(cfg.circuits, ",")
	}
	for _, n := range names {
		scale := 1
		if cfg.scaleFlag != "auto" {
			s, err := strconv.Atoi(cfg.scaleFlag)
			if err != nil || s < 1 {
				return nil, fmt.Errorf("bad -scale %q", cfg.scaleFlag)
			}
			scale = s
		} else {
			spec, err := findTableIScale(n, cfg.autoCap)
			if err != nil {
				return nil, err
			}
			scale = spec
		}
		d, err := serretime.NewTableIDesign(n, scale)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := d.WriteBench(&buf); err != nil {
			return nil, err
		}
		out = append(out, payload{name: n + ".bench", body: buf.Bytes()})
	}
	return out, nil
}

// submitURL renders the POST endpoint with the sweep's solve options as
// query parameters.
func submitURL(cfg config, name string) string {
	q := url.Values{}
	q.Set("name", name)
	q.Set("algorithm", "minobswin")
	if cfg.acc == serretime.AccuracyFast {
		q.Set("accuracy", "fast")
	}
	q.Set("frames", strconv.Itoa(cfg.frames))
	q.Set("words", strconv.Itoa(cfg.words))
	if cfg.timeout > 0 {
		q.Set("timeout", cfg.timeout.String())
	}
	if cfg.stallSteps > 0 {
		q.Set("stallsteps", strconv.Itoa(cfg.stallSteps))
	}
	return strings.TrimRight(cfg.serveURL, "/") + "/v1/retime?" + q.Encode()
}

// submitOne POSTs a payload, retrying 429 backpressure responses until
// the context ends. A 429 is not a dropped job — it is the queue bound
// working; the client's job is to keep offering the work. The server's
// Retry-After hint is honored when present; otherwise the retry waits
// back off exponentially with jitter. Every wait aborts promptly on
// context cancellation instead of sleeping past the deadline.
func submitOne(ctx context.Context, client *http.Client, u string, body []byte, traceID telemetry.TraceID) (jobMsg, int, error) {
	var retried429 int
	var bo backoff
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			return jobMsg{}, retried429, err
		}
		req.Header.Set("Content-Type", "text/plain")
		// W3C trace context: the minted ID joins the client's view of
		// this submission with the server's span tree for the job.
		req.Header.Set("Traceparent", "00-"+traceID.String()+"-0000000000000001-01")
		resp, err := client.Do(req)
		if err != nil {
			return jobMsg{}, retried429, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return jobMsg{}, retried429, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			retried429++
			wait := bo.next()
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			if err := sleepCtx(ctx, wait); err != nil {
				return jobMsg{}, retried429, fmt.Errorf("queue full until deadline: %w", err)
			}
			continue
		}
		var msg jobMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return jobMsg{}, retried429, fmt.Errorf("bad response (HTTP %d): %.200s", resp.StatusCode, data)
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			return jobMsg{}, retried429, fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg.Error)
		}
		return msg, retried429, nil
	}
}

// pollJob polls a job's status until it reaches a terminal state or the
// context ends.
func pollJob(ctx context.Context, client *http.Client, base, id string, interval time.Duration) (jobMsg, error) {
	u := strings.TrimRight(base, "/") + "/v1/jobs/" + id
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return jobMsg{}, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return jobMsg{}, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return jobMsg{}, err
		}
		var msg jobMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return jobMsg{}, fmt.Errorf("bad status response (HTTP %d): %.200s", resp.StatusCode, data)
		}
		switch msg.Status {
		case "done", "failed":
			return msg, nil
		}
		if err := sleepCtx(ctx, interval); err != nil {
			return msg, fmt.Errorf("job %s still %q at deadline", id, msg.Status)
		}
	}
}

// fetchResult downloads a finished job's retimed netlist.
func fetchResult(ctx context.Context, client *http.Client, base, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: HTTP %d: %.200s", resp.StatusCode, data)
	}
	return data, nil
}

// runServe is the -serve entry point: submit a burst of cfg.burst
// submissions (cycling through the payload set), poll every job to
// completion, download and cross-check results, and print a summary
// with client-observed submit→result latency percentiles. With -trace
// set, every submission carries a minted Traceparent, every job's span
// tree is fetched from /v1/jobs/{id}/trace and written as JSONL to the
// trace path, and a missing or empty trace fails the run.
func runServe(cfg config, stdout, stderr io.Writer) int {
	payloads, err := servePayloads(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "serbench: -serve: %v\n", err)
		return 2
	}
	if cfg.burst < len(payloads) {
		cfg.burst = len(payloads)
	}
	client := &http.Client{Timeout: 60 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.serveWait)
	defer cancel()

	type outcome struct {
		payload    int
		msg        jobMsg
		result     []byte
		retried429 int
		minted     telemetry.TraceID // trace ID sent in Traceparent
		latency    time.Duration     // submit → result downloaded
		err        error
	}
	outcomes := make([]outcome, cfg.burst)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := payloads[i%len(payloads)]
			o := &outcomes[i]
			o.payload = i % len(payloads)
			o.minted = telemetry.NewTraceID()
			t0 := time.Now()
			msg, retried, err := submitOne(ctx, client, submitURL(cfg, p.name), p.body, o.minted)
			o.retried429 = retried
			if err != nil {
				o.err = err
				return
			}
			// The status endpoint doesn't echo the disposition — only the
			// submit response carries it, so hold on to it across polling.
			disp := msg.Disposition
			traceID := msg.TraceID
			if msg.Status != "done" && msg.Status != "failed" {
				msg, err = pollJob(ctx, client, cfg.serveURL, msg.ID, cfg.pollInterval)
				if err != nil {
					o.err = err
					return
				}
				msg.Disposition = disp
				msg.TraceID = traceID
			}
			o.msg = msg
			if msg.Status == "failed" {
				o.err = fmt.Errorf("job failed (%s): %s", msg.ErrorClass, msg.Error)
				return
			}
			o.result, o.err = fetchResult(ctx, client, cfg.serveURL, msg.ID)
			o.latency = time.Since(t0)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	// Tally and verify determinism: all results of one payload must be
	// byte-identical. Accepted submissions must also carry the trace ID
	// the client minted — the propagation contract.
	ref := make([][]byte, len(payloads))
	var accepted, coalesced, cached, retried429, failures, mismatches, traceMismatches int
	var latencies []time.Duration
	for i := range outcomes {
		o := &outcomes[i]
		retried429 += o.retried429
		if o.err != nil {
			failures++
			fmt.Fprintf(stderr, "serbench: -serve: submission %d (%s): %v\n", i, payloads[o.payload].name, o.err)
			continue
		}
		latencies = append(latencies, o.latency)
		switch o.msg.Disposition {
		case "coalesced":
			coalesced++
		case "cached":
			cached++
		default:
			accepted++
			if o.msg.TraceID != o.minted.String() {
				traceMismatches++
				fmt.Fprintf(stderr, "serbench: -serve: submission %d: sent trace %s, server answered %s\n",
					i, o.minted, o.msg.TraceID)
			}
		}
		if ref[o.payload] == nil {
			ref[o.payload] = o.result
		} else if !bytes.Equal(ref[o.payload], o.result) {
			mismatches++
			fmt.Fprintf(stderr, "serbench: -serve: nondeterministic result for %s\n", payloads[o.payload].name)
		}
	}

	fmt.Fprintf(stdout, "serve burst against %s\n", cfg.serveURL)
	fmt.Fprintf(stdout, "  payloads        %d (%s)\n", len(payloads), payloadNames(payloads))
	fmt.Fprintf(stdout, "  submissions     %d in %v (%.1f/s)\n", cfg.burst, wall.Round(time.Millisecond), float64(cfg.burst)/wall.Seconds())
	fmt.Fprintf(stdout, "  accepted        %d\n", accepted)
	fmt.Fprintf(stdout, "  coalesced       %d\n", coalesced)
	fmt.Fprintf(stdout, "  cached          %d\n", cached)
	fmt.Fprintf(stdout, "  429 retries     %d\n", retried429)
	fmt.Fprintf(stdout, "  failures        %d\n", failures)
	fmt.Fprintf(stdout, "  nondeterminism  %d\n", mismatches)
	if len(latencies) > 0 {
		fmt.Fprintf(stdout, "  latency (submit→result) p50 %v  p95 %v  p99 %v  max %v\n",
			telemetry.Quantile(latencies, 0.50).Round(time.Millisecond),
			telemetry.Quantile(latencies, 0.95).Round(time.Millisecond),
			telemetry.Quantile(latencies, 0.99).Round(time.Millisecond),
			telemetry.Quantile(latencies, 1.0).Round(time.Millisecond))
	}

	traceFailures := 0
	if cfg.tracePath != "" {
		jobIDs := make([]string, 0, len(outcomes))
		seen := make(map[string]bool)
		for i := range outcomes {
			if o := &outcomes[i]; o.err == nil && o.msg.ID != "" && !seen[o.msg.ID] {
				seen[o.msg.ID] = true
				jobIDs = append(jobIDs, o.msg.ID)
			}
		}
		traceFailures = collectTraces(ctx, client, cfg, jobIDs, stdout, stderr)
	}

	if failures > 0 || mismatches > 0 || traceMismatches > 0 || traceFailures > 0 {
		return 1
	}
	return 0
}

// collectTraces fetches each job's persisted span tree, writes the
// documents one per line to cfg.tracePath, prints the joined
// client/server latency picture (queue wait vs. solve time from the
// server's spans), and returns the number of jobs whose trace was
// missing or empty, or every job when the file cannot be written.
func collectTraces(ctx context.Context, client *http.Client, cfg config, jobIDs []string, stdout, stderr io.Writer) int {
	f, err := os.Create(cfg.tracePath)
	if err != nil {
		fmt.Fprintf(stderr, "serbench: -serve: %v\n", err)
		return len(jobIDs)
	}
	var docs [][]byte
	missing := 0
	var queueWait, solve []time.Duration
	for _, id := range jobIDs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			strings.TrimRight(cfg.serveURL, "/")+"/v1/jobs/"+id+"/trace", nil)
		if err != nil {
			missing++
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			fmt.Fprintf(stderr, "serbench: -serve: trace %.12s: %v\n", id, err)
			missing++
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			fmt.Fprintf(stderr, "serbench: -serve: trace %.12s: HTTP %d\n", id, resp.StatusCode)
			missing++
			continue
		}
		doc, err := telemetry.DecodeTraceDoc(data)
		if err != nil || doc.Root == nil || len(doc.Root.Children) == 0 {
			fmt.Fprintf(stderr, "serbench: -serve: trace %.12s: empty or undecodable span tree\n", id)
			missing++
			continue
		}
		if qw := doc.Root.Find("queue-wait"); qw != nil {
			queueWait = append(queueWait, time.Duration(qw.DurNS))
		}
		if sv := doc.Root.Find("solve"); sv != nil {
			solve = append(solve, time.Duration(sv.DurNS))
		}
		docs = append(docs, data)
	}
	if err := writeTraceLines(f, docs); err != nil {
		fmt.Fprintf(stderr, "serbench: -serve: trace: %v\n", err)
		return len(jobIDs)
	}
	fmt.Fprintf(stdout, "  traces          %d collected, %d missing -> %s\n", len(jobIDs)-missing, missing, cfg.tracePath)
	if len(queueWait) > 0 || len(solve) > 0 {
		fmt.Fprintf(stdout, "  server spans    queue-wait p50 %v p95 %v   solve p50 %v p95 %v\n",
			telemetry.Quantile(queueWait, 0.50).Round(time.Millisecond),
			telemetry.Quantile(queueWait, 0.95).Round(time.Millisecond),
			telemetry.Quantile(solve, 0.50).Round(time.Millisecond),
			telemetry.Quantile(solve, 0.95).Round(time.Millisecond))
	}
	return missing
}

func payloadNames(ps []payload) string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = strings.TrimSuffix(p.name, ".bench")
	}
	return strings.Join(names, ",")
}
