package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"serretime"
	"serretime/internal/guard"
	"serretime/internal/telemetry"
)

// Handler returns the service's HTTP front end:
//
//	POST   /v1/retime                submit a netlist (raw or multipart body)
//	GET    /v1/jobs/{id}             job status
//	GET    /v1/jobs/{id}/result      retimed netlist download
//	GET    /v1/jobs/{id}/trace       the job's span tree (telemetry.TraceDoc)
//	POST   /v1/sessions              open a warm ECO session (netlist + options)
//	POST   /v1/sessions/{id}/delta   apply a netlist delta, re-solve incrementally
//	GET    /v1/sessions/{id}         session status
//	GET    /v1/sessions/{id}/result  the session's committed retimed netlist
//	DELETE /v1/sessions/{id}         close a session
//	GET    /debug/jobs               live view of in-flight jobs + sessions
//	GET    /healthz                  liveness + queue depth + build info
//	GET    /metrics                  Prometheus-style metrics (with exemplars)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/retime", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionOpen)
	mux.HandleFunc("POST /v1/sessions/{id}/delta", s.handleSessionDelta)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("GET /v1/sessions/{id}/result", s.handleSessionResult)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)
	mux.HandleFunc("GET /debug/jobs", s.handleDebugJobs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// submitResponse is the POST /v1/retime reply.
type submitResponse struct {
	JobView
	// Disposition is "accepted", "coalesced" or "cached".
	Disposition string `json:"disposition"`
}

type errorResponse struct {
	Error string `json:"error"`
	Class string `json:"class,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// retryAfterHeader sets the configured backpressure hint. Every
// "come back later" response goes through here, so the hint a client
// sees is always Config.RetryAfter — never a hardcoded constant.
func (s *Server) retryAfterHeader(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrSessionsFull), errors.Is(err, ErrSolversBusy):
		s.retryAfterHeader(w)
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrSessionBusy):
		s.retryAfterHeader(w)
		status = http.StatusConflict
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, guard.ErrParse):
		status = http.StatusBadRequest
	case errors.Is(err, guard.ErrTimeout):
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), Class: guard.Classify(err)})
}

// handleSubmit accepts a netlist as a raw request body (the filename —
// which selects the format — comes from the "name" query parameter,
// default circuit.bench) or as the first file of a multipart form
// (preferred field "netlist"; the part's filename selects the format).
// Solve options come from query parameters; see optionsFromQuery. A
// Traceparent request header (W3C form, or a bare 32-hex trace ID)
// names the job's trace; without one the server mints an ID. The
// response echoes the job's trace ID in X-Trace-Id and the JSON body.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	opt, err := optionsFromQuery(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	traceID, _ := telemetry.ParseTraceparent(r.Header.Get("Traceparent"))
	body, name, err := s.readNetlist(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	d, err := serretime.Parse(body, name)
	body.Close()
	if err != nil {
		s.writeError(w, err)
		return
	}
	j, disp, err := s.Submit(d, opt, traceID)
	if err != nil {
		s.writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if disp == Cached {
		status = http.StatusOK
	}
	view := s.View(j)
	if view.TraceID != "" {
		w.Header().Set("X-Trace-Id", view.TraceID)
	}
	writeJSON(w, status, submitResponse{JobView: view, Disposition: disp.String()})
}

// handleTrace serves a job's span tree: the persisted document for a
// finished job (identical across restarts), a live snapshot otherwise.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	doc := s.TraceJSON(j)
	if len(doc) == 0 {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "job has no trace"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(doc)
}

// debugJobsResponse is the GET /debug/jobs live view.
type debugJobsResponse struct {
	Now           string        `json:"now"`
	Uptime        string        `json:"uptime"`
	Workers       int           `json:"workers"`
	BusyWorkers   int           `json:"busy_workers"`
	QueueDepth    int           `json:"queue_depth"`
	QueueCapacity int           `json:"queue_capacity"`
	InFlight      []InFlightJob `json:"in_flight"`
	Completed     int64         `json:"completed"`
	Failed        int64         `json:"failed"`
	// Sessions lists the open warm ECO sessions, oldest ID first.
	Sessions []SessionView `json:"sessions"`
}

func (s *Server) handleDebugJobs(w http.ResponseWriter, _ *http.Request) {
	rows, busy, workers := s.InFlight()
	depth, capa := s.QueueDepth()
	s.mu.Lock()
	completed, failed := s.completed, s.failed
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, debugJobsResponse{
		Now:           time.Now().UTC().Format(time.RFC3339),
		Uptime:        time.Since(s.start).Round(time.Second).String(),
		Workers:       workers,
		BusyWorkers:   busy,
		QueueDepth:    depth,
		QueueCapacity: capa,
		InFlight:      rows,
		Completed:     completed,
		Failed:        failed,
		Sessions:      s.Sessions(),
	})
}

// readNetlist extracts the netlist stream and its format-carrying name
// from the request. The caller closes the returned reader.
func (s *Server) readNetlist(r *http.Request) (io.ReadCloser, string, error) {
	limited := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	mt, params, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if mt != "multipart/form-data" {
		name := r.URL.Query().Get("name")
		if name == "" {
			name = "circuit.bench"
		}
		return limited, name, nil
	}
	boundary := params["boundary"]
	if boundary == "" {
		return nil, "", guard.Optionf("service.submit", "Content-Type", "multipart form without boundary")
	}
	mr := multipart.NewReader(limited, boundary)
	var first *multipart.Part
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, "", guard.Optionf("service.submit", "body", "bad multipart form: %v", err)
		}
		if p.FileName() == "" {
			continue
		}
		if p.FormName() == "netlist" {
			return p, p.FileName(), nil
		}
		if first == nil {
			first = p
		}
	}
	if first != nil {
		return first, first.FileName(), nil
	}
	return nil, "", guard.Optionf("service.submit", "body", "multipart form has no file part")
}

// optionsFromQuery builds the solve options from query parameters:
//
//	algorithm    minobswin (default) | minobs | minarea
//	engine       closure (default) | forest
//	epsilon      clock-period relaxation ε (non-negative float)
//	frames       time-frame expansion depth n
//	words        signature width in 64-bit words
//	seed         simulation seed
//	maxintervals per-gate ELW interval cap
//	stallsteps   optimizer stall watchdog
//	timeout      per-attempt budget (Go duration; server default applies
//	             when absent)
//	verify       co-simulate the retiming against the input (boolean);
//	             result-invariant, so it does not fragment the cache key
//	accuracy     exact (default) | fast — observability engine tier; fast
//	             is the analytical propagation-probability estimate
//
// Unknown values fail with typed errors unwrapping to guard.ErrParse;
// a non-finite or negative epsilon is rejected here so it never reaches
// the hashing, caching or solving layers. Unknown parameter NAMES are
// rejected too: a typo like acuracy=fast must not silently fall back to
// the expensive exact path the caller was trying to avoid.
func optionsFromQuery(r *http.Request) (serretime.RobustOptions, error) {
	q := r.URL.Query()
	var opt serretime.RobustOptions
	var unknown []string
	for k := range q {
		switch k {
		case "algorithm", "engine", "epsilon", "frames", "words", "seed",
			"maxintervals", "stallsteps", "timeout", "verify", "accuracy",
			"name":
		default:
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return opt, guard.Optionf("service.submit", unknown[0],
			"unknown query parameter %q (known: accuracy, algorithm, engine, epsilon, frames, maxintervals, name, seed, stallsteps, timeout, verify, words)", unknown[0])
	}
	acc, err := serretime.ParseAccuracy("service.submit", q.Get("accuracy"))
	if err != nil {
		return opt, err
	}
	opt.Analysis.Accuracy = acc
	switch alg := q.Get("algorithm"); alg {
	case "", "minobswin":
		opt.Algorithm = serretime.MinObsWin
	case "minobs":
		opt.Algorithm = serretime.MinObs
	case "minarea":
		opt.Algorithm = serretime.MinArea
	default:
		return opt, guard.Optionf("service.submit", "algorithm", "unknown algorithm %q", alg)
	}
	switch eng := q.Get("engine"); eng {
	case "", "closure":
		opt.Engine = serretime.EngineClosure
	case "forest":
		opt.Engine = serretime.EngineForest
	default:
		return opt, guard.Optionf("service.submit", "engine", "unknown engine %q", eng)
	}
	if v := q.Get("epsilon"); v != "" {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return opt, guard.Optionf("service.submit", "epsilon", "want a finite non-negative float, got %q", v)
		}
		opt.Epsilon = x
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{
		{"frames", &opt.Analysis.Frames},
		{"words", &opt.Analysis.SignatureWords},
		{"maxintervals", &opt.Analysis.MaxIntervals},
		{"stallsteps", &opt.StallSteps},
	} {
		v := q.Get(f.name)
		if v == "" {
			continue
		}
		x, err := strconv.Atoi(v)
		if err != nil || x < 0 {
			return opt, guard.Optionf("service.submit", f.name, "want a non-negative integer, got %q", v)
		}
		*f.dst = x
	}
	if v := q.Get("seed"); v != "" {
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return opt, guard.Optionf("service.submit", "seed", "want an integer, got %q", v)
		}
		opt.Analysis.Seed = x
	}
	if v := q.Get("verify"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return opt, guard.Optionf("service.submit", "verify", "want a boolean, got %q", v)
		}
		opt.Verify = b
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return opt, guard.Optionf("service.submit", "timeout", "want a non-negative duration, got %q", v)
		}
		opt.Timeout = d
	}
	return opt, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, s.View(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	res, err := s.Result(j)
	if err != nil {
		if v := s.View(j); v.Status == StateQueued.String() || v.Status == StateRunning.String() {
			s.retryAfterHeader(w)
			writeJSON(w, http.StatusConflict, errorResponse{Error: fmt.Sprintf("job %s: %s", j.ID, v.Status)})
			return
		}
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.Name+"_retimed.bench"))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res)
}

type healthResponse struct {
	Status        string `json:"status"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Workers       int    `json:"workers"`
	BusyWorkers   int    `json:"busy_workers"`
	Uptime        string `json:"uptime"`
	// Build identity, so fleet dashboards can tell nodes apart: the Go
	// toolchain, the module version, and the VCS revision when the
	// binary carries them (runtime/debug.ReadBuildInfo).
	GoVersion  string `json:"go_version,omitempty"`
	Version    string `json:"version,omitempty"`
	Revision   string `json:"revision,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// StoreMode is "memory" (no store configured), "disk" (journaling),
	// or "memory-degraded" (a store write failed; persistence is off but
	// the service keeps solving).
	StoreMode string `json:"store_mode"`
	// StoreErrors counts failed store writes (nonzero implies a past or
	// present degradation).
	StoreErrors int64 `json:"store_errors,omitempty"`
	// Recovery counters from the boot-time WAL replay.
	RecoveredFinished int  `json:"recovered_finished,omitempty"`
	RecoveredRequeued int  `json:"recovered_requeued,omitempty"`
	RecoveredDropped  int  `json:"recovered_dropped,omitempty"`
	Quarantined       int  `json:"quarantined,omitempty"`
	WALCorruptRecords int  `json:"wal_corrupt_records,omitempty"`
	WALTruncatedTail  bool `json:"wal_truncated_tail,omitempty"`
}

// buildIdentity reads the binary's build info once: go version, module
// version, and VCS revision (short). Absent fields stay empty (tests,
// stripped builds).
var buildIdentity = sync.OnceValues(func() (struct{ Go, Version, Revision string }, error) {
	var id struct{ Go, Version, Revision string }
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return id, nil
	}
	id.Go = info.GoVersion
	if info.Main.Version != "" && info.Main.Version != "(devel)" {
		id.Version = info.Main.Version
	}
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
			id.Revision = kv.Value[:12]
		}
	}
	return id, nil
})

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	depth, capa := s.QueueDepth()
	mode, errs, restored := s.StoreStatus()
	build, _ := buildIdentity()
	writeJSON(w, code, healthResponse{
		Status:            status,
		QueueDepth:        depth,
		QueueCapacity:     capa,
		Workers:           s.cfg.Workers,
		BusyWorkers:       int(s.busy.Load()),
		GoVersion:         build.Go,
		Version:           build.Version,
		Revision:          build.Revision,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Uptime:            time.Since(s.start).Round(time.Second).String(),
		StoreMode:         mode.String(),
		StoreErrors:       errs,
		RecoveredFinished: restored.Finished,
		RecoveredRequeued: restored.Requeued,
		RecoveredDropped:  restored.Dropped,
		Quarantined:       restored.Quarantined,
		WALCorruptRecords: restored.CorruptRecords,
		WALTruncatedTail:  restored.TruncatedTail,
	})
}
