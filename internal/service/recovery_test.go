package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"serretime"
	"serretime/internal/guard"
	"serretime/internal/store"
	"serretime/internal/telemetry"
)

func openStore(t *testing.T, dir string) (*store.Disk, []store.RecoveredJob, store.Stats) {
	t.Helper()
	d, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	jobs, st, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return d, jobs, st
}

// TestRecoveryRestoresFinishedJobAsCacheHit is the tentpole contract
// end to end, in-process: solve a job on a store-backed server, shut it
// down, boot a second server on the same data directory, and demand
// that resubmitting the identical circuit answers "cached" with the
// byte-identical result — the cache survived the restart.
func TestRecoveryRestoresFinishedJobAsCacheHit(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, Timeout: time.Minute}
	d := tableIDesign(t, "b14_1_opt", 100)

	diskA, jobs, st := openStore(t, dir)
	if len(jobs) != 0 {
		t.Fatalf("fresh store recovered %d jobs", len(jobs))
	}
	cfgA := cfg
	cfgA.Store = diskA
	a := New(context.Background(), cfgA)
	a.Restore(jobs, st)
	j, disp, err := a.Submit(d, fastOpts(), telemetry.TraceID{})
	if err != nil || disp != Accepted {
		t.Fatalf("submit: %v, %v", disp, err)
	}
	<-j.Done
	want, err := a.Result(j)
	if err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Drain(dctx); err != nil {
		t.Fatal(err)
	}

	// Second life: same directory, fresh process state.
	diskB, jobs, st := openStore(t, dir)
	if st.Finished != 1 || st.Quarantined != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
	cfgB := cfg
	cfgB.Store = diskB
	b := New(context.Background(), cfgB)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = b.Drain(dctx)
	}()
	sum := b.Restore(jobs, st)
	if sum.Finished != 1 || sum.Requeued != 0 || sum.Dropped != 0 {
		t.Fatalf("restore summary: %+v", sum)
	}

	j2, disp, err := b.Submit(d, fastOpts(), telemetry.TraceID{})
	if err != nil {
		t.Fatal(err)
	}
	if disp != Cached {
		t.Fatalf("post-restart resubmission: disposition %v, want Cached", disp)
	}
	got, err := b.Result(j2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs from the original solve:\n%.120s\nvs\n%.120s", got, want)
	}
	if mode, _, _ := b.StoreStatus(); mode != StoreDisk {
		t.Fatalf("store mode %v, want disk", mode)
	}
}

// TestRecoveryRequeuesInterruptedJob plays back a WAL whose job was
// running at "crash" time (journaled submitted+running, never done):
// Restore must re-enqueue it, a worker must solve it, and the result
// must then serve from cache.
func TestRecoveryRequeuesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	d := tableIDesign(t, "s13207", 100)
	opt := fastOpts()
	opt.Timeout = time.Minute // pin: the blob round-trip must not depend on server defaults
	key, _, err := jobKey(d, opt)
	if err != nil {
		t.Fatal(err)
	}

	// The crashed daemon's life, reduced to its WAL trace.
	diskA, _, _ := openStore(t, dir)
	if err := diskA.JournalSubmitted(key, d.Name(), benchBytes(t, d), encodeOptions(opt), opt.CanonicalKey()); err != nil {
		t.Fatal(err)
	}
	if err := diskA.JournalRunning(key); err != nil {
		t.Fatal(err)
	}
	if err := diskA.Close(); err != nil {
		t.Fatal(err)
	}

	diskB, jobs, st := openStore(t, dir)
	if st.Requeued != 1 {
		t.Fatalf("recovery stats: %+v", st)
	}
	s := New(context.Background(), Config{Workers: 2, Timeout: time.Minute, Store: diskB})
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(dctx)
	}()
	sum := s.Restore(jobs, st)
	if sum.Requeued != 1 || sum.Dropped != 0 {
		t.Fatalf("restore summary: %+v", sum)
	}

	j, ok := s.Job(key)
	if !ok {
		t.Fatalf("requeued job %.12s not registered", key)
	}
	select {
	case <-j.Done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("requeued job never finished")
	}
	if _, err := s.Result(j); err != nil {
		t.Fatalf("re-solved job failed: %v", err)
	}
	if _, disp, err := s.Submit(d, opt, telemetry.TraceID{}); err != nil || disp != Cached {
		t.Fatalf("resubmission after re-solve: %v, %v", disp, err)
	}
}

// TestRecoveryRequeuesFastAccuracyJob is the regression test for the
// options blob dropping Analysis.Accuracy: a fast-mode job interrupted
// mid-solve must recover under its *fast* key. Before the fix the
// decoded options defaulted to exact, the re-derived key disagreed with
// the journaled ID, and the job was silently Dropped instead of
// re-solved.
func TestRecoveryRequeuesFastAccuracyJob(t *testing.T) {
	dir := t.TempDir()
	d := tableIDesign(t, "s13207", 100)
	opt := fastOpts()
	opt.Timeout = time.Minute
	opt.Analysis.Accuracy = serretime.AccuracyFast
	key, _, err := jobKey(d, opt)
	if err != nil {
		t.Fatal(err)
	}

	diskA, _, _ := openStore(t, dir)
	if err := diskA.JournalSubmitted(key, d.Name(), benchBytes(t, d), encodeOptions(opt), opt.CanonicalKey()); err != nil {
		t.Fatal(err)
	}
	if err := diskA.JournalRunning(key); err != nil {
		t.Fatal(err)
	}
	if err := diskA.Close(); err != nil {
		t.Fatal(err)
	}

	diskB, jobs, st := openStore(t, dir)
	s := New(context.Background(), Config{Workers: 2, Timeout: time.Minute, Store: diskB})
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(dctx)
	}()
	sum := s.Restore(jobs, st)
	if sum.Dropped != 0 || sum.Requeued != 1 {
		t.Fatalf("restore summary: %+v (fast-accuracy job must requeue, not drop)", sum)
	}
	j, ok := s.Job(key)
	if !ok {
		t.Fatalf("fast job %.12s not registered under its fast key", key)
	}
	select {
	case <-j.Done:
	case <-time.After(2 * time.Minute):
		t.Fatal("requeued fast job never finished")
	}
	if _, err := s.Result(j); err != nil {
		t.Fatalf("re-solved fast job failed: %v", err)
	}
	// The cache answers under the fast key only; the exact-mode twin is
	// still a fresh job.
	if _, disp, err := s.Submit(d, opt, telemetry.TraceID{}); err != nil || disp != Cached {
		t.Fatalf("fast resubmission: %v, %v", disp, err)
	}
	exact := opt
	exact.Analysis.Accuracy = serretime.AccuracyExact
	if _, disp, err := s.Submit(d, exact, telemetry.TraceID{}); err != nil || disp == Cached {
		t.Fatalf("exact twin must not hit the fast cache entry: %v, %v", disp, err)
	}
}

// TestRecoveryDropsKeyMismatch journals a record whose ID does not
// match the payload+options it claims: Restore must refuse to solve
// under a forged identity.
func TestRecoveryDropsKeyMismatch(t *testing.T) {
	dir := t.TempDir()
	d := tableIDesign(t, "s13207", 100)
	opt := fastOpts()
	opt.Timeout = time.Minute

	diskA, _, _ := openStore(t, dir)
	bogus := strings.Repeat("ab", 32)
	if err := diskA.JournalSubmitted(bogus, d.Name(), benchBytes(t, d), encodeOptions(opt), opt.CanonicalKey()); err != nil {
		t.Fatal(err)
	}
	if err := diskA.Close(); err != nil {
		t.Fatal(err)
	}

	diskB, jobs, st := openStore(t, dir)
	defer diskB.Close()
	s := New(context.Background(), Config{Workers: 1, Timeout: time.Minute})
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(dctx)
	}()
	sum := s.Restore(jobs, st)
	if sum.Dropped != 1 || sum.Requeued != 0 {
		t.Fatalf("restore summary: %+v", sum)
	}
	if _, ok := s.Job(bogus); ok {
		t.Fatal("forged job registered")
	}
}

// failingStore fails every journal call after the trip wire arms.
type failingStore struct {
	err    error
	closed bool
}

func (f *failingStore) JournalSubmitted(string, string, []byte, []byte, string) error { return f.err }
func (f *failingStore) JournalRunning(string) error                                   { return f.err }
func (f *failingStore) JournalDone(string, store.ResultMeta, []byte, []byte) error    { return f.err }
func (f *failingStore) JournalFailed(string, string, string) error                    { return f.err }
func (f *failingStore) JournalEvicted(string) error                                   { return f.err }
func (f *failingStore) Close() error                                                  { f.closed = true; return nil }

// TestStoreFailureDegradesToMemoryOnly: a store write failure must cost
// persistence, never the solve. The server flips to memory-degraded
// mode, counts the error, closes the store, and keeps serving.
func TestStoreFailureDegradesToMemoryOnly(t *testing.T) {
	fake := &failingStore{err: fmt.Errorf("disk on fire")}
	var logged []string
	svc, ts := newTestServer(t, Config{
		Workers: 2,
		Timeout: time.Minute,
		Store:   fake,
		Logf:    func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	})
	d := tableIDesign(t, "s13207", 100)

	j, disp, err := svc.Submit(d, fastOpts(), telemetry.TraceID{})
	if err != nil || disp != Accepted {
		t.Fatalf("submit with a failing store must still accept: %v, %v", disp, err)
	}
	<-j.Done
	if _, err := svc.Result(j); err != nil {
		t.Fatalf("solve failed under store degradation: %v", err)
	}

	mode, errs, _ := svc.StoreStatus()
	if mode != StoreDegraded || errs != 1 {
		t.Fatalf("mode %v, errs %d; want memory-degraded, 1", mode, errs)
	}
	if !fake.closed {
		t.Fatal("degraded store not closed")
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "memory-only") {
		t.Fatalf("degradation not logged exactly once: %q", logged)
	}

	// The flag is visible to operators.
	body, resp := fetchBody(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"store_mode": "memory-degraded"`) {
		t.Fatalf("healthz (HTTP %d): %.400s", resp.StatusCode, body)
	}
	body, _ = fetchBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`serretimed_store_mode{mode="memory-degraded"} 1`,
		`serretimed_store_mode{mode="disk"} 0`,
		"serretimed_store_errors_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%.800s", want, body)
		}
	}
}

// TestOptionsBlobRoundTrip: the journaled options blob must reproduce
// every option it keeps, and so the canonical key — otherwise recovered
// jobs would re-solve under a different identity than they were
// submitted with. Every kept field is set to a non-default value, so a
// decoder that drops any one of them fails. A blob in the format older
// versions journaled, which still carries removed options at their
// defaults, must re-derive that version's key and job ID.
func TestOptionsBlobRoundTrip(t *testing.T) {
	opt := fastOpts()
	opt.Algorithm = serretime.MinArea
	opt.Engine = serretime.EngineForest
	opt.Epsilon = 0.25
	opt.Ts = 0.5
	opt.Th = 4
	opt.AreaWeight = 0.5
	opt.Verify = true
	opt.StallSteps = 7
	opt.Analysis.Accuracy = serretime.AccuracyFast
	opt.Analysis.MaxIntervals = 8
	opt.Analysis.Seed = 42
	opt.Timeout = 90 * time.Second

	got, err := decodeOptions(encodeOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, opt) {
		t.Fatalf("options not preserved:\n%+v\nvs\n%+v", got, opt)
	}
	if got.CanonicalKey() != opt.CanonicalKey() {
		t.Fatalf("canonical key not preserved:\n%s\nvs\n%s", got.CanonicalKey(), opt.CanonicalKey())
	}
	if _, err := decodeOptions([]byte("{broken")); err == nil || !errors.Is(err, guard.ErrStore) {
		t.Fatalf("bad blob: %v", err)
	}

	old, err := decodeOptions([]byte(`{"alg":1,"eng":1,"eps":0.2,"ts":0.5,"th":4,"area":0.5,"kunits":128,"verify":true,"stall":7,"frames":3,"words":2,"maxiv":8,"seed":42,"acc":1,"timeout":60000000000,"relax":2}`))
	if err != nil {
		t.Fatal(err)
	}
	const oldKey = "alg=MinObs engine=forest eps=0.2 ts=0.5 th=4 area=0.5 rmin=0 kunits=128 single=false literal=false stall=7 acc=fast frames=3 words=2 seed=42 maxint=8 timeout=1m0s retries=0 relax=2"
	if got := old.CanonicalKey(); got != oldKey {
		t.Errorf("older blob re-derives another key:\n got %s\nwant %s", got, oldKey)
	}
	d, err := serretime.ParseBench(strings.NewReader("INPUT(a)\nOUTPUT(y)\nf = DFF(a)\ny = NOT(f)\n"), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	const oldID = "0053dff9a6e5c53c1ebb9581f14114d0cb49d410ee5833ad7ba8cd6c1575648d"
	if id, _, err := jobKey(d, old); err != nil || id != oldID {
		t.Errorf("older blob re-derives job ID %s (%v), want %s", id, err, oldID)
	}
}
