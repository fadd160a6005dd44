package service

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"serretime"
	"serretime/internal/telemetry"
)

// ECO sessions (DESIGN.md §17). A session pins a parsed design and its
// last committed result (WarmState) server-side, so a netlist delta is
// applied to the held netlist and re-solved without a re-upload or
// re-parse; every session solve seeds constraint discovery. Sessions
// are ephemeral by design: they live in memory only, never touch the job
// store, and do not survive a daemon restart — the session ID embeds a
// per-boot nonce so a client resuming after a crash gets 410 Gone
// instead of a silent cold re-solve under a stale identity.

// Session errors; writeError maps them to HTTP statuses.
var (
	// ErrSessionsFull: the table is at MaxSessions and every session is
	// mid-solve, so none can be evicted (HTTP 429).
	ErrSessionsFull = fmt.Errorf("service: session table full")
	// ErrSessionBusy: the addressed session is mid-solve (HTTP 409).
	ErrSessionBusy = fmt.Errorf("service: session busy")
	// ErrSolversBusy: every solve slot is taken (HTTP 429).
	ErrSolversBusy = fmt.Errorf("service: all solve slots busy")
)

// session is one ECO session. mu serializes solves and guards all
// mutable fields; it is held for the full duration of a delta solve, so
// the table lock (Server.sessMu) must never wait on it — eviction and
// sweeps use TryLock and skip busy sessions.
type session struct {
	id      string
	created time.Time

	mu       chan struct{} // 1-slot semaphore: TryLock without sync.Mutex caveats
	warm     *serretime.WarmState
	name     string
	lastUsed time.Time // guarded by Server.sessMu (LRU bookkeeping)

	deltas    int64
	lastMS    float64
	result    []byte // canonical .bench of the last committed solve
	resultSHA string
	tier      serretime.Tier
	degraded  bool
	deltaSER  float64
}

func (ss *session) tryLock() bool {
	select {
	case ss.mu <- struct{}{}:
		return true
	default:
		return false
	}
}

func (ss *session) unlock() { <-ss.mu }

// initSessions wires the session table into a new Server (called by New).
func (s *Server) initSessions() {
	var nonce [6]byte
	_, _ = rand.Read(nonce[:])
	s.sessNonce = hex.EncodeToString(nonce[:])
	s.sessions = make(map[string]*session)
	s.sessEvicted = make(map[string]int64)
	s.sessSolve = make(chan struct{}, s.cfg.Workers)
}

// acquireSolveSlot bounds concurrent session solves by the worker count,
// so a burst of deltas cannot oversubscribe the CPU the batch queue is
// budgeted for. Non-blocking: a full pool is backpressure (429), not a
// wait.
func (s *Server) acquireSolveSlot() bool {
	select {
	case s.sessSolve <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) releaseSolveSlot() { <-s.sessSolve }

// openSession registers a freshly solved warm state, evicting the
// least-recently-used idle session when the table is full. All-busy
// tables refuse the open instead of blocking.
func (s *Server) openSession(ss *session) (string, error) {
	now := time.Now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.sweepSessionsLocked(now)
	for len(s.sessions) >= s.cfg.MaxSessions {
		if !s.evictOldestLocked("lru") {
			return "", ErrSessionsFull
		}
	}
	s.sessSeq++
	ss.id = fmt.Sprintf("%s.%d", s.sessNonce, s.sessSeq)
	ss.created = now
	ss.lastUsed = now
	s.sessions[ss.id] = ss
	s.sessOpened++
	return ss.id, nil
}

// lookupSession resolves a session ID, distinguishing "never existed"
// (404) from "existed but is gone" (410): a wrong boot nonce means the
// session did not survive a restart; a right nonce with an
// already-minted sequence number means it was closed, expired, or
// evicted.
func (s *Server) lookupSession(id string) (*session, int, string) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	now := time.Now()
	// Expire before resolving: a session idle past its TTL must answer
	// 410 on its next access, not get its lease renewed.
	s.sweepSessionsLocked(now)
	if ss, ok := s.sessions[id]; ok {
		ss.lastUsed = now
		return ss, http.StatusOK, ""
	}
	nonce, seqStr, ok := strings.Cut(id, ".")
	if !ok {
		return nil, http.StatusNotFound, "unknown session"
	}
	if nonce != s.sessNonce {
		return nil, http.StatusGone, "session did not survive a daemon restart (sessions are ephemeral; open a new one)"
	}
	if seq, err := strconv.ParseInt(seqStr, 10, 64); err == nil && seq >= 1 && seq <= s.sessSeq {
		return nil, http.StatusGone, "session closed, expired, or evicted"
	}
	return nil, http.StatusNotFound, "unknown session"
}

// sweepSessionsLocked evicts sessions idle past SessionTTL. Lazy: it
// runs on open and on the debug/metrics views, which is enough for a
// table this small. Callers hold s.sessMu.
func (s *Server) sweepSessionsLocked(now time.Time) {
	if s.cfg.SessionTTL <= 0 {
		return
	}
	for id, ss := range s.sessions {
		if now.Sub(ss.lastUsed) <= s.cfg.SessionTTL {
			continue
		}
		if !ss.tryLock() {
			continue // mid-solve: it is not idle, let it finish
		}
		ss.unlock()
		delete(s.sessions, id)
		s.sessEvicted["ttl"]++
	}
}

// evictOldestLocked drops the least-recently-used idle session. Callers
// hold s.sessMu. Returns false when every session is mid-solve.
func (s *Server) evictOldestLocked(reason string) bool {
	byAge := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		byAge = append(byAge, ss)
	}
	sort.Slice(byAge, func(i, j int) bool { return byAge[i].lastUsed.Before(byAge[j].lastUsed) })
	for _, victim := range byAge {
		if !victim.tryLock() {
			continue // mid-solve: try the next-oldest
		}
		victim.unlock()
		delete(s.sessions, victim.id)
		s.sessEvicted[reason]++
		return true
	}
	return false
}

// closeSession removes a session explicitly (DELETE).
func (s *Server) closeSession(id string) bool {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return false
	}
	delete(s.sessions, id)
	s.sessEvicted["closed"]++
	return true
}

// SessionView is a session snapshot for JSON responses and /debug/jobs.
type SessionView struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Age     string `json:"age"`
	IdleFor string `json:"idle_for"`
	Busy    bool   `json:"busy,omitempty"`
	// Deltas counts applied deltas; a rejected delta does not count.
	Deltas int64 `json:"deltas"`
	// Last solve summary (the open solve until the first delta).
	Tier         string  `json:"tier"`
	Degraded     bool    `json:"degraded,omitempty"`
	DeltaSER     float64 `json:"delta_ser"`
	SolveMS      float64 `json:"solve_ms"`
	ResultSHA256 string  `json:"result_sha256"`
}

// viewLocked snapshots a session. Callers must hold the session lock or
// otherwise know no solve is mutating it.
func (s *Server) sessionView(ss *session, now time.Time, busy bool) SessionView {
	return SessionView{
		ID:           ss.id,
		Name:         ss.name,
		Age:          now.Sub(ss.created).Round(time.Millisecond).String(),
		IdleFor:      now.Sub(ss.lastUsed).Round(time.Millisecond).String(),
		Busy:         busy,
		Deltas:       ss.deltas,
		Tier:         ss.tier.String(),
		Degraded:     ss.degraded,
		DeltaSER:     ss.deltaSER,
		SolveMS:      ss.lastMS,
		ResultSHA256: ss.resultSHA,
	}
}

// Sessions snapshots the table for /debug/jobs, oldest first.
func (s *Server) Sessions() []SessionView {
	now := time.Now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.sweepSessionsLocked(now)
	views := make([]SessionView, 0, len(s.sessions))
	for _, ss := range s.sessions {
		busy := !ss.tryLock()
		if !busy {
			ss.unlock()
		}
		views = append(views, s.sessionView(ss, now, busy))
	}
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	return views
}

// sessionStats snapshots the counters for /metrics.
func (s *Server) sessionStats() (open int, opened, deltas int64, evicted map[string]int64) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.sweepSessionsLocked(time.Now())
	evicted = make(map[string]int64, len(s.sessEvicted))
	for k, v := range s.sessEvicted {
		evicted[k] = v
	}
	return len(s.sessions), s.sessOpened, s.sessDeltas, evicted
}

// commitSolve records a finished solve's artifacts on the session.
func (ss *session) commitSolve(res *serretime.RobustResult, ms float64) error {
	var buf bytes.Buffer
	if err := res.Retimed.WriteBench(&buf); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	ss.result = buf.Bytes()
	ss.resultSHA = hex.EncodeToString(sum[:])
	ss.tier = res.Tier
	ss.degraded = res.Degraded
	ss.deltaSER = res.DeltaSER()
	ss.lastMS = ms
	return nil
}

// ---- HTTP handlers ----

// openSessionResponse is the POST /v1/sessions reply.
type openSessionResponse struct {
	SessionView
	Disposition string `json:"disposition"`
}

// deltaRequest is the POST /v1/sessions/{id}/delta body.
type deltaRequest struct {
	Ops []serretime.DeltaOp `json:"ops"`
}

// deltaResponse is the reply: the delta's sequence number plus the same
// result summary a session open returns.
type deltaResponse struct {
	Session      string  `json:"session"`
	Seq          int64   `json:"seq"`
	Tier         string  `json:"tier"`
	Degraded     bool    `json:"degraded,omitempty"`
	DeltaSER     float64 `json:"delta_ser"`
	SolveMS      float64 `json:"solve_ms"`
	ResultSHA256 string  `json:"result_sha256"`
}

// handleSessionOpen ingests a netlist exactly like POST /v1/retime
// (same body forms, same option query parameters), solves it
// synchronously, and keeps the warm state resident. The response
// carries the result digest; GET /v1/sessions/{id}/result downloads
// the retimed netlist itself.
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeError(w, ErrDraining)
		return
	}
	opt, err := optionsFromQuery(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	tr := s.applySolveDefaults(&opt, telemetry.TraceID{})
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
	if !s.acquireSolveSlot() {
		s.writeError(w, ErrSolversBusy)
		return
	}
	start := time.Now()
	warm, err := serretime.NewWarmState(s.baseCtx, d, opt)
	s.releaseSolveSlot()
	s.foldSolve(tr)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ss := &session{mu: make(chan struct{}, 1), warm: warm, name: d.Name()}
	if err := ss.commitSolve(warm.Result(), float64(time.Since(start).Microseconds())/1000); err != nil {
		s.writeError(w, err)
		return
	}
	if _, err := s.openSession(ss); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, openSessionResponse{
		SessionView: s.sessionView(ss, time.Now(), false),
		Disposition: "opened",
	})
}

// handleSessionDelta applies a JSON delta to the session netlist and
// re-solves it the way the session open solved the first one
// (WarmState.RetimeDelta). Option query parameters, when present,
// replace the session's options for this and later deltas; an empty
// query keeps the committed ones. Only an applied delta advances the
// session's delta count.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeError(w, ErrDraining)
		return
	}
	ss, code, msg := s.lookupSession(r.PathValue("id"))
	if ss == nil {
		writeJSON(w, code, errorResponse{Error: msg})
		return
	}
	var req deltaRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad delta body: %v", err)})
		return
	}
	if !ss.tryLock() {
		s.retryAfterHeader(w)
		writeJSON(w, http.StatusConflict, errorResponse{Error: ErrSessionBusy.Error()})
		return
	}
	defer ss.unlock()

	opt := ss.warm.Options()
	if len(r.URL.Query()) > 0 {
		var err error
		if opt, err = optionsFromQuery(r); err != nil {
			s.writeError(w, err)
			return
		}
	}
	tr := s.applySolveDefaults(&opt, telemetry.TraceID{})

	if !s.acquireSolveSlot() {
		s.writeError(w, ErrSolversBusy)
		return
	}
	start := time.Now()
	res, err := ss.warm.RetimeDelta(s.baseCtx, req.Ops, opt)
	s.releaseSolveSlot()
	s.foldSolve(tr)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ss.deltas++
	s.sessMu.Lock()
	s.sessDeltas++
	s.sessMu.Unlock()
	ms := float64(time.Since(start).Microseconds()) / 1000
	if err := ss.commitSolve(res, ms); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, deltaResponse{
		Session:      ss.id,
		Seq:          ss.deltas,
		Tier:         res.Tier.String(),
		Degraded:     res.Degraded,
		DeltaSER:     res.DeltaSER(),
		SolveMS:      ms,
		ResultSHA256: ss.resultSHA,
	})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	ss, code, msg := s.lookupSession(r.PathValue("id"))
	if ss == nil {
		writeJSON(w, code, errorResponse{Error: msg})
		return
	}
	busy := !ss.tryLock()
	if !busy {
		defer ss.unlock()
	}
	writeJSON(w, http.StatusOK, s.sessionView(ss, time.Now(), busy))
}

// handleSessionResult serves the committed retimed netlist verbatim, so
// clients can byte-compare a delta result against their own cold solve.
func (s *Server) handleSessionResult(w http.ResponseWriter, r *http.Request) {
	ss, code, msg := s.lookupSession(r.PathValue("id"))
	if ss == nil {
		writeJSON(w, code, errorResponse{Error: msg})
		return
	}
	if !ss.tryLock() {
		s.retryAfterHeader(w)
		writeJSON(w, http.StatusConflict, errorResponse{Error: ErrSessionBusy.Error()})
		return
	}
	res := ss.result
	ss.unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", ss.name+"_retimed.bench"))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.closeSession(id) {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	_, code, msg := s.lookupSession(id)
	writeJSON(w, code, errorResponse{Error: msg})
}

// foldSolve folds a finished session solve's trace into the /metrics
// solver section, as observePhasesLocked does for a finished job. A
// session trace is neither persisted nor exposed.
func (s *Server) foldSolve(tr *telemetry.Trace) {
	tr.Finish()
	doc := tr.Doc("", "", "", "", false)
	s.mu.Lock()
	s.solver.Add(doc)
	s.mu.Unlock()
}
