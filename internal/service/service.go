// Package service implements dnnlockd, the attack-service daemon
// (DESIGN.md §17): a stdlib-only net/http JSON API that accepts attack
// jobs (model + lock config + oracle/farm spec), executes them on a
// sharded worker pool with bounded per-shard queues, and exposes each
// job's status, live progress, serialized checkpoint, and span trace.
//
// Backpressure is explicit: a full shard queue rejects the submit with
// 429 and a Retry-After header; a draining daemon rejects with 503.
// Long-running decrypt jobs are suspendable: the runner wires
// core.Config.OnCheckpoint, so at every site boundary the job persists a
// versioned core.Checkpoint and honors suspend/cancel/drain requests.
// Graceful shutdown (Server.Drain) stops intake, asks running jobs to
// suspend at their next boundary, requeues still-queued jobs for the next
// start, and waits for the workers to exit; with a -state directory the
// whole job table survives the restart.
package service

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dnnlock/internal/obs"
)

// Config sizes a daemon.
type Config struct {
	// Workers is the shard count of the worker pool (one worker goroutine
	// per shard). Defaults to 2.
	Workers int
	// QueueDepth bounds each shard's queue. Defaults to 8. A submit whose
	// target shard is full is rejected with 429.
	QueueDepth int
	// StateDir, when non-empty, persists every job (spec, state, progress,
	// latest checkpoint, result) as one JSON file per job, reloaded on the
	// next start. Empty means in-memory only.
	StateDir string
	// Logger receives the daemon's structured logs. Nil selects
	// obs.Default(os.Stderr), controlled by DNNLOCK_LOG.
	Logger *slog.Logger
}

// Server is the dnnlockd daemon: the job table, the worker pool, and the
// HTTP API over both.
type Server struct {
	cfg Config
	log *slog.Logger

	// mu guards the job table and the draining flag. Submission paths hold
	// the read lock across their queue send, and Drain flips draining
	// under the write lock before closing the queues, so a send can never
	// race a close.
	mu       sync.RWMutex
	draining bool
	jobs     map[string]*Job
	order    []string
	nextID   int
	// cells memoizes trained (model, bits, scale, seed) cells across jobs;
	// see Server.cellFor.
	cells map[cellKey]*cellEntry

	pool *pool

	// runJob executes one job; tests substitute a fake to drive the
	// pool/backpressure/drain machinery without real attacks.
	runJob func(shard int, j *Job)
	// ckptHook, when non-nil, observes every checkpoint boundary before the
	// runner decides whether to continue; tests use it to land suspend
	// requests at an exact boundary (real jobs at tiny scale finish in
	// milliseconds, far too fast to race an HTTP suspend against).
	ckptHook func(j *Job)

	started time.Time

	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
}

// New builds a daemon, reloads persisted jobs from cfg.StateDir, and starts
// the worker pool. Jobs that were queued or running when the previous
// process exited are re-enqueued (resuming from their latest checkpoint
// when one was persisted); suspended jobs stay suspended until an explicit
// POST /jobs/{id}/resume.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	log := cfg.Logger
	if log == nil {
		log = obs.Default(os.Stderr)
	}
	s := &Server{
		cfg:     cfg,
		log:     log,
		jobs:    make(map[string]*Job),
		started: time.Now(),
	}
	s.runJob = s.executeJob
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, func(shard int, j *Job) { s.runJob(shard, j) })
	if err := s.loadState(); err != nil {
		return nil, err
	}
	s.requeueLoaded()
	return s, nil
}

// isDraining reads the drain flag.
func (s *Server) isDraining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// shardFor pins a (job, attempt) to a shard: FNV-1a over the id plus the
// attempt number, so a resumed job may land on a different shard than its
// first attempt did (resharding across workers).
func (s *Server) shardFor(id string, attempt int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	h.Write([]byte{byte(attempt), byte(attempt >> 8)})
	return int(h.Sum32() % uint32(len(s.pool.shards)))
}

// Drain performs graceful shutdown: stop intake (new submits get 503), ask
// every running job to suspend at its next checkpoint boundary (monolithic
// jobs early-stop their fit), requeue still-queued jobs for the next
// start, close the queues, and wait for the workers — at most timeout
// (0 = wait forever). Returns false if the timeout expired with workers
// still busy.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return true
	}
	s.draining = true
	running := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		running = append(running, j)
	}
	s.pool.close() // safe: submits hold the read lock across their send
	s.mu.Unlock()

	for _, j := range running {
		j.stop.CompareAndSwap(stopNone, stopSuspend)
	}
	done := make(chan struct{})
	//lint:ignore nakedgo shutdown helper; exits when pool.wait returns, which Drain blocks on (or abandons at timeout)
	go func() {
		s.pool.wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return true
	}
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		s.log.Warn("drain timeout expired with workers still busy", "timeout", timeout)
		return false
	}
}

// Handler returns the daemon's HTTP API. Every endpoint here is documented
// in OPERATIONS.md; keep the two in lockstep.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("POST /jobs/{id}/suspend", s.handleSuspend)
	mux.HandleFunc("POST /jobs/{id}/resume", s.handleResume)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON emits a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError emits the API's uniform error shape.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /jobs: validate the spec, register the job, and
// enqueue it on its shard. 400 on a bad spec, 503 while draining, 429 with
// Retry-After when the shard queue is full (backpressure — nothing is
// registered in that case, so a retry is a clean resubmit).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	if err := spec.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	s.nextID++
	j := &Job{
		id:        fmt.Sprintf("j%06d", s.nextID),
		spec:      spec,
		state:     StateQueued,
		attempt:   1,
		submitted: time.Now(),
		buf:       &lockedBuffer{},
	}
	j.tracer = obs.New(obs.WithSink(j.buf))
	j.shard = s.shardFor(j.id, j.attempt)
	if !s.pool.submit(j, j.shard) {
		s.nextID-- // nothing registered; the id is reusable
		s.mu.Unlock()
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "shard %d queue is full", j.shard)
		return
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	s.submitted.Add(1)
	s.persist(j)
	s.log.Info("job submitted", "id", j.id, "kind", spec.Kind, "model", spec.Model,
		"bits", spec.KeyBits, "shard", j.shard)
	writeJSON(w, http.StatusAccepted, j.view())
}

// jobByID looks a job up.
func (s *Server) jobByID(id string) *Job {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.jobs[id]
}

// handleList is GET /jobs: every job in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// handleGet is GET /jobs/{id}: one job's status, progress, and result.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleTrace is GET /jobs/{id}/trace: the job's span trace as JSONL, one
// segment (root span "job") per run attempt.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	fmt.Fprint(w, j.buf.snapshot())
}

// handleCheckpoint is GET /jobs/{id}/checkpoint: the latest serialized
// core.Checkpoint (404 until the job crossed its first site boundary).
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	raw := j.checkpointBytes()
	if len(raw) == 0 {
		writeError(w, http.StatusNotFound, "job has no checkpoint yet")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

// handleSuspend is POST /jobs/{id}/suspend: ask a queued or running
// decrypt job to stop at its next site boundary. 409 for monolithic jobs
// (no boundaries to stop at) and for jobs already finished.
func (s *Server) handleSuspend(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if j.spec.Kind != KindDecrypt {
		writeError(w, http.StatusConflict, "%s jobs have no site boundaries to suspend at", j.spec.Kind)
		return
	}
	switch st := j.currentState(); st {
	case StateQueued, StateRunning:
		j.stop.CompareAndSwap(stopNone, stopSuspend)
		writeJSON(w, http.StatusAccepted, j.view())
	default:
		writeError(w, http.StatusConflict, "job is %s", st)
	}
}

// handleResume is POST /jobs/{id}/resume: requeue a suspended job as a new
// attempt, rehashed onto a possibly different shard. 409 unless suspended;
// 429 with Retry-After when the new shard's queue is full (the job stays
// suspended, resume again later).
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	j.mu.Lock()
	if j.state != StateSuspended {
		st := j.state
		j.mu.Unlock()
		s.mu.RUnlock()
		writeError(w, http.StatusConflict, "job is %s, only suspended jobs resume", st)
		return
	}
	j.attempt++
	j.shard = s.shardFor(j.id, j.attempt)
	j.state = StateQueued
	j.stop.Store(stopNone)
	shard := j.shard
	j.mu.Unlock()
	if !s.pool.submit(j, shard) {
		j.mu.Lock()
		j.attempt--
		j.state = StateSuspended
		j.mu.Unlock()
		s.mu.RUnlock()
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "shard %d queue is full", shard)
		return
	}
	s.mu.RUnlock()
	s.persist(j)
	s.log.Info("job resumed", "id", j.id, "attempt", j.view().Attempt, "shard", shard)
	writeJSON(w, http.StatusAccepted, j.view())
}

// handleCancel is DELETE /jobs/{id}: cancel a queued/running/suspended job
// (running ones stop at their next boundary or fit epoch), or delete the
// record of a finished one.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobByID(id)
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	switch j.currentState() {
	case StateQueued, StateRunning:
		j.stop.Store(stopCancel)
		writeJSON(w, http.StatusAccepted, j.view())
	case StateSuspended:
		j.setState(StateCancelled)
		s.persist(j)
		writeJSON(w, http.StatusOK, j.view())
	default:
		s.mu.Lock()
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		s.unpersist(id)
		writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
	}
}

// handleHealth is GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.isDraining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

// handleMetrics is GET /metrics: job-table counters, queue occupancy, and
// a runtime/metrics snapshot (the same counters obs spans annotate).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	byState := make(map[State]int)
	s.mu.RLock()
	for _, j := range s.jobs {
		byState[j.currentState()]++
	}
	s.mu.RUnlock()
	lengths, capacity := s.pool.queueStats()
	queued := 0
	for _, n := range lengths {
		queued += n
	}
	rs := obs.ReadRuntimeStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs": map[string]any{
			"by_state":  byState,
			"submitted": s.submitted.Load(),
			"rejected":  s.rejected.Load(),
			"completed": s.completed.Load(),
			"failed":    s.failed.Load(),
		},
		"queue": map[string]any{
			"shards":         len(lengths),
			"depth_per":      capacity,
			"queued":         queued,
			"shard_lengths":  lengths,
			"draining":       s.isDraining(),
			"uptime_seconds": time.Since(s.started).Seconds(),
		},
		"runtime": map[string]any{
			"goroutines":  rs.Goroutines,
			"heap_bytes":  rs.HeapBytes,
			"gc_cycles":   rs.GCCycles,
			"alloc_bytes": rs.CumAllocBytes,
		},
	})
}

// persistedJob is the state-dir file format: the public view plus the raw
// checkpoint. Traces and live oracle state are deliberately not persisted;
// see the Checkpoint resumability invariants.
type persistedJob struct {
	View       JobView         `json:"view"`
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// persist writes the job's durable state to the state dir (atomic rename).
func (s *Server) persist(j *Job) {
	if s.cfg.StateDir == "" {
		return
	}
	pj := persistedJob{View: j.view(), Checkpoint: j.checkpointBytes()}
	raw, err := json.MarshalIndent(pj, "", "  ")
	if err != nil {
		s.log.Error("persist marshal failed", "id", pj.View.ID, "err", err)
		return
	}
	path := filepath.Join(s.cfg.StateDir, pj.View.ID+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err == nil {
		err = os.Rename(tmp, path)
		if err != nil {
			s.log.Error("persist rename failed", "id", pj.View.ID, "err", err)
		}
	} else {
		s.log.Error("persist write failed", "id", pj.View.ID, "err", err)
	}
}

// unpersist removes a deleted job's state file.
func (s *Server) unpersist(id string) {
	if s.cfg.StateDir == "" {
		return
	}
	_ = os.Remove(filepath.Join(s.cfg.StateDir, id+".json"))
}

// loadState reloads the job table from the state dir.
func (s *Server) loadState() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("service: state dir: %w", err)
	}
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return fmt.Errorf("service: reading state dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(s.cfg.StateDir, name))
		if err != nil {
			s.log.Warn("skipping unreadable state file", "file", name, "err", err)
			continue
		}
		var pj persistedJob
		if err := json.Unmarshal(raw, &pj); err != nil {
			s.log.Warn("skipping corrupt state file", "file", name, "err", err)
			continue
		}
		// persist writes <id>.json, so any other name — an empty id
		// included — is not this daemon's file, and two files can never
		// claim one job.
		if id := pj.View.ID; id == "" || id+".json" != name {
			s.log.Warn("skipping state file not named after its job id", "file", name, "id", id)
			continue
		}
		j := &Job{
			id:        pj.View.ID,
			spec:      pj.View.Spec,
			state:     pj.View.State,
			shard:     pj.View.Shard,
			attempt:   pj.View.Attempt,
			submitted: pj.View.Submitted,
			progress:  pj.View.Progress,
			ckpt:      pj.Checkpoint,
			errMsg:    pj.View.Error,
			buf:       &lockedBuffer{},
		}
		if pj.View.Started != nil {
			j.started = *pj.View.Started
		}
		if pj.View.Finished != nil {
			j.finished = *pj.View.Finished
		}
		if pj.View.Result != nil {
			r := *pj.View.Result
			j.result = &r
		}
		j.tracer = obs.New(obs.WithSink(j.buf))
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if n, err := strconv.Atoi(j.id[1:]); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	return nil
}

// requeueLoaded re-enqueues reloaded jobs that were interrupted mid-flight:
// queued jobs restart, running jobs resume from their persisted checkpoint
// (or restart when none was reached). Suspended jobs wait for an explicit
// resume. A shard queue too small to hold the backlog leaves the overflow
// suspended with an explanatory error.
func (s *Server) requeueLoaded() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state != StateQueued && j.state != StateRunning {
			continue
		}
		j.state = StateQueued
		j.attempt++
		j.shard = s.shardFor(j.id, j.attempt)
		if !s.pool.submit(j, j.shard) {
			j.state = StateSuspended
			j.errMsg = "requeue after restart overflowed the shard queue; resume manually"
			continue
		}
		s.log.Info("job requeued after restart", "id", j.id, "attempt", j.attempt,
			"resumable", len(j.ckpt) > 0)
	}
}
