package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	mrand "math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"paragraph/internal/remote"
	"paragraph/internal/shard"
	"paragraph/internal/trace"
)

// Options configures a Server. The zero value of every field selects the
// default noted on it.
type Options struct {
	// StateDir is the root of the daemon's persistent state. Required.
	StateDir string
	// Workers bounds how many jobs run concurrently. 0 selects 2.
	Workers int
	// LocalExecutors bounds how many shard attempts run in-process at
	// once. 0 selects Workers; negative disables local execution entirely
	// — a fleet-only coordinator whose shards run exclusively on leased
	// workers.
	LocalExecutors int
	// MaxQueued caps how many submitted jobs may wait for a worker;
	// submissions past the cap are answered 429 with a Retry-After derived
	// from the backlog. 0 selects 1024.
	MaxQueued int
	// LeaseTTL is how long a leased shard attempt may go without a
	// heartbeat before the coordinator expires it (consuming one unit of
	// the shard's attempt budget). 0 selects 10s.
	LeaseTTL time.Duration
	// ShardAttempts is the per-shard retry budget. 0 selects 3.
	ShardAttempts int
	// ShardTimeout is the deadline of one shard attempt; 0 means none.
	ShardTimeout time.Duration
	// RetryBase is the supervisor's backoff before the second attempt; it
	// doubles per attempt. 0 selects 50ms.
	RetryBase time.Duration
	// RetryMax caps the supervisor backoff. 0 selects 2s.
	RetryMax time.Duration
	// Seed seeds the backoff jitter (supervisor and remote fetches).
	Seed int64
	// Client issues remote trace requests; nil selects http.DefaultClient.
	// Tests inject the chaos transport here.
	Client *http.Client
	// Sleep replaces every backoff sleep; tests inject a no-op. nil
	// selects real context-aware sleeps.
	Sleep func(time.Duration)
}

// Server is the pgserved daemon: a trace registry, a job queue, a bounded
// worker pool, and the HTTP API over them. Create with New, start the
// workers with Start, serve Handler, and stop with Drain.
type Server struct {
	st             *state
	client         *http.Client
	sleep          func(time.Duration)
	shardAttempts  int
	shardTimeout   time.Duration
	retryBase      time.Duration
	retryMax       time.Duration
	workers        int
	localExecutors int
	maxQueued      int
	leaseTTL       time.Duration
	seed           int64

	ctx     context.Context
	cancel  context.CancelFunc
	drainCh chan struct{}
	jq      *jobQueue
	wg      sync.WaitGroup

	// The offer watch: pending is the FIFO of published shard attempts and
	// offerNote is its condvar — a one-token notify channel signaled on
	// every enqueue. Local executors and lease-acquire long-polls all block
	// on the same channel, so an idle fleet costs zero wakeups until work
	// actually arrives (see nextOffer).
	offerMu   sync.Mutex
	pending   []*attemptOffer
	offerNote chan struct{}

	leaseMu sync.Mutex
	leases  map[string]*lease

	rngMu sync.Mutex
	rng   *mrand.Rand

	scans scanMemo

	mu       sync.Mutex
	traces   map[string]TraceInfo
	jobs     map[string]*job
	draining bool

	// Test hooks: afterShard fires after a shard result is persisted
	// (crash-point injection), beforeAttempt at the top of every contained
	// attempt (fault injection; a panic here is contained like any other).
	afterShard    func(jobID string, shard int)
	beforeAttempt func(jobID string, shard int)
}

// New builds a Server over the state directory, recovering every
// registered trace and persisted job: jobs with a result file are done,
// jobs with a degradation marker are degraded, and everything else is
// queued for resumption when Start runs.
func New(opts Options) (*Server, error) {
	st, err := newState(opts.StateDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		st:             st,
		client:         opts.Client,
		sleep:          opts.Sleep,
		shardAttempts:  opts.ShardAttempts,
		shardTimeout:   opts.ShardTimeout,
		retryBase:      opts.RetryBase,
		retryMax:       opts.RetryMax,
		workers:        opts.Workers,
		localExecutors: opts.LocalExecutors,
		maxQueued:      opts.MaxQueued,
		leaseTTL:       opts.LeaseTTL,
		seed:           opts.Seed,
		ctx:            ctx,
		cancel:         cancel,
		drainCh:        make(chan struct{}),
		jq:             newJobQueue(),
		offerNote:      make(chan struct{}, 1),
		leases:         make(map[string]*lease),
		rng:            mrand.New(mrand.NewSource(opts.Seed)),
		jobs:           make(map[string]*job),
	}
	if s.client == nil {
		s.client = http.DefaultClient
	}
	if s.workers <= 0 {
		s.workers = 2
	}
	if s.localExecutors == 0 {
		s.localExecutors = s.workers
	}
	if s.localExecutors < 0 {
		s.localExecutors = 0
	}
	if s.maxQueued <= 0 {
		s.maxQueued = 1024
	}
	if s.leaseTTL <= 0 {
		s.leaseTTL = 10 * time.Second
	}
	if s.shardAttempts <= 0 {
		s.shardAttempts = 3
	}
	if s.retryBase <= 0 {
		s.retryBase = 50 * time.Millisecond
	}
	if s.retryMax <= 0 {
		s.retryMax = 2 * time.Second
	}
	if s.traces, err = st.loadTraces(); err != nil {
		cancel()
		return nil, err
	}
	if err := s.recoverJobs(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// recoverJobs rebuilds the in-memory job table from disk. Non-terminal
// jobs are left queued; Start re-enqueues them.
func (s *Server) recoverJobs() error {
	ids, err := s.st.listJobs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		spec, err := s.st.loadSpec(id)
		if err != nil {
			// A job directory without a readable spec is unrecoverable
			// debris (e.g. a crash between mkdir and spec write); skip it.
			continue
		}
		j := &job{spec: spec, state: StateQueued}
		if _, statErr := os.Stat(s.st.resultPath(id)); statErr == nil {
			j.state = StateDone
		} else if mark, ok := s.st.loadDegraded(id); ok {
			j.state = StateDegraded
			j.degraded = mark
		}
		s.recoverProgress(j)
		s.jobs[id] = j
	}
	return nil
}

// recoverProgress reconstructs per-shard progress from the persisted plan
// and shard result files, so status of a recovered job is honest.
func (s *Server) recoverProgress(j *job) {
	plan, err := s.st.loadPlan(j.spec.ID)
	if err != nil {
		return
	}
	j.shards = make([]shardProgress, len(plan.Shards))
	for i := range j.shards {
		j.shards[i].State = "pending"
		if part, _, err := shard.LoadResult(s.st.shardPath(j.spec.ID, i)); err == nil {
			j.shards[i].State = "done"
			j.shards[i].Events = part.Events
		}
	}
	if j.state == StateDegraded && j.degraded != nil && j.degraded.Shard < len(j.shards) {
		j.shards[j.degraded.Shard].State = "failed"
	}
}

// Start launches the worker pool, the local shard executors, and the
// lease sweeper, then enqueues every recovered non-terminal job.
func (s *Server) Start() {
	for w := 0; w < s.workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	for e := 0; e < s.localExecutors; e++ {
		s.wg.Add(1)
		go s.shardExecutor()
	}
	s.wg.Add(1)
	go s.leaseSweeper()
	s.mu.Lock()
	var pending []*job
	for _, j := range s.jobs {
		if j.state == StateQueued {
			pending = append(pending, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(pending, func(i, j int) bool { return pending[i].spec.ID < pending[j].spec.ID })
	for _, j := range pending {
		s.jq.push(j.spec.ID, j.spec.Priority)
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.drainCh:
			return
		case <-s.jq.notify:
			// pop re-signals when items remain, so one pop per wakeup
			// cannot strand queued work behind a consumed token.
			id, ok := s.jq.pop()
			if !ok {
				continue
			}
			s.mu.Lock()
			j := s.jobs[id]
			s.mu.Unlock()
			if j != nil {
				s.runJob(j)
			}
		}
	}
}

// Drain stops the daemon cleanly: readiness goes false, new jobs are
// rejected, running jobs stop at the next shard boundary (their state
// stays resumable on disk), and Drain returns when every worker has
// exited or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		return fmt.Errorf("serve: drain timed out: %w", ctx.Err())
	}
}

// kill aborts the daemon immediately — the in-process equivalent of
// SIGKILL, used by the crash-resume tests. Running attempts are canceled
// mid-flight and nothing beyond the already-persisted state survives.
func (s *Server) kill() {
	s.cancel()
	s.wg.Wait()
}

// remoteOpts derives the remote fetch options for one job: shared client
// and sleep hook, jitter seeded per job so retry timing is reproducible.
func (s *Server) remoteOpts(jobID string) remote.Options {
	var h int64
	for _, c := range jobID {
		h = h*131 + int64(c)
	}
	return remote.Options{Client: s.client, Seed: s.seed ^ h, Sleep: s.sleep}
}

func (s *Server) traceInfo(id string) (TraceInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ti, ok := s.traces[id]
	return ti, ok
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/traces", s.handleRegisterTrace)
	mux.HandleFunc("GET /v1/traces", s.handleListTraces)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/traces/{id}/data", s.handleTraceData)
	mux.HandleFunc("POST /v1/leases", s.handleLeaseAcquire)
	mux.HandleFunc("POST /v1/leases/{id}/renew", s.handleLeaseRenew)
	mux.HandleFunc("POST /v1/leases/{id}/complete", s.handleLeaseComplete)
	mux.HandleFunc("POST /v1/leases/{id}/fail", s.handleLeaseFail)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

func (s *Server) handleRegisterTrace(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Location string `json:"location"`
	}
	if err := decodeJSON(w, r, &req); err != nil || req.Location == "" {
		bodyError(w, err, "body must be {\"location\": <path or URL>}")
		return
	}
	ti := TraceInfo{Location: req.Location, Remote: remote.IsURL(req.Location)}
	if ti.Remote {
		src, err := remote.Open(r.Context(), req.Location, s.remoteOpts("register"))
		if err != nil {
			code := http.StatusBadGateway
			if remote.IsPermanent(err) {
				code = http.StatusBadRequest
			}
			httpError(w, code, fmt.Sprintf("probing %s: %v", req.Location, err))
			return
		}
		ti.Bytes = src.Size()
	} else {
		fi, err := os.Stat(req.Location)
		if err != nil || fi.IsDir() {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("trace %s: not a readable file", req.Location))
			return
		}
		ti.Bytes = fi.Size()
	}
	ti.ID = newID("t")
	s.mu.Lock()
	s.traces[ti.ID] = ti
	err := s.st.saveTraces(s.traces)
	s.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, ti)
}

func (s *Server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]TraceInfo, 0, len(s.traces))
	for _, t := range s.traces {
		list = append(list, t)
	}
	s.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Trace     string          `json:"trace"`
		Config    json.RawMessage `json:"config"`
		Shards    int             `json:"shards"`
		Degraded  bool            `json:"degraded"`
		Speculate bool            `json:"speculate"`
		Priority  int             `json:"priority"`
	}
	if err := decodeJSON(w, r, &req); err != nil {
		bodyError(w, err, fmt.Sprintf("parsing job: %v", err))
		return
	}
	spec := JobSpec{TraceID: req.Trace, Shards: req.Shards, Degraded: req.Degraded,
		Speculate: req.Speculate, Priority: req.Priority}
	if len(req.Config) > 0 {
		if err := json.Unmarshal(req.Config, &spec.Config); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("parsing config: %v", err))
			return
		}
	}
	if spec.Shards <= 0 {
		spec.Shards = 4
	}
	if _, ok := s.traceInfo(spec.TraceID); !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown trace %q", spec.TraceID))
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting jobs")
		return
	}
	if depth := s.jq.depth(); depth >= s.maxQueued {
		// Backpressure, not failure: tell the client when to come back.
		// The hint scales with the backlog per worker — a deep queue earns
		// a longer wait — so synchronized retry storms spread out.
		retry := depth / max(s.workers, 1)
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("job queue full (%d queued, cap %d)", depth, s.maxQueued))
		return
	}
	spec.ID = newID("j")
	if err := s.st.saveSpec(spec); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	j := &job{spec: spec, state: StateQueued}
	s.mu.Lock()
	s.jobs[spec.ID] = j
	s.mu.Unlock()
	s.jq.push(spec.ID, spec.Priority)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": spec.ID, "state": StateQueued})
}

// JobView is the status representation of one job.
type JobView struct {
	ID            string          `json:"id"`
	Trace         string          `json:"trace"`
	State         string          `json:"state"`
	Shards        []shardProgress `json:"shards,omitempty"`
	ShardsDone    int             `json:"shards_done"`
	Retry         remote.Stats    `json:"retry"`
	LeaseExpiries int             `json:"lease_expiries,omitempty"`
	Degraded      *DegradedMark   `json:"degraded,omitempty"`
	Error         string          `json:"error,omitempty"`
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

// viewLocked builds the view under j.mu (held by the caller); subscribe
// uses it to pair the snapshot with stream registration atomically.
func (j *job) viewLocked() JobView {
	v := JobView{
		ID:            j.spec.ID,
		Trace:         j.spec.TraceID,
		State:         j.state,
		Shards:        append([]shardProgress(nil), j.shards...),
		Retry:         j.retry,
		LeaseExpiries: j.leaseExpiries,
		Degraded:      j.degraded,
		Error:         j.errMsg,
	}
	for _, sp := range j.shards {
		if sp.State == "done" {
			v.ShardsDone++
		}
	}
	return v
}

func (s *Server) getJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.view())
	}
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// ResultSummary is the JSON face of a completed job's result; the exact
// result (gob, deep-equal to a monolithic run) is served by ?format=gob.
type ResultSummary struct {
	Instructions       uint64          `json:"instructions"`
	Operations         uint64          `json:"operations"`
	Syscalls           uint64          `json:"syscalls"`
	CriticalPath       int64           `json:"critical_path"`
	Available          float64         `json:"available"`
	Branches           uint64          `json:"branches"`
	Mispredictions     uint64          `json:"mispredictions"`
	MaxLiveMemoryWords int             `json:"max_live_memory_words"`
	ReadStats          trace.ReadStats `json:"read_stats"`
	Retry              remote.Stats    `json:"retry"`
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.getJob(id)
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	v := j.view()
	switch v.State {
	case StateDone:
	case StateDegraded:
		writeJSON(w, http.StatusConflict, map[string]any{
			"state": v.State, "degraded": v.Degraded,
			"error": "job degraded: no merged result; per-shard status has the partial progress",
		})
		return
	default:
		writeJSON(w, http.StatusConflict, map[string]any{"state": v.State, "error": "job has no result yet"})
		return
	}
	if r.URL.Query().Get("format") == "gob" {
		w.Header().Set("Content-Type", "application/octet-stream")
		http.ServeFile(w, r, s.st.resultPath(id))
		return
	}
	res, err := s.st.loadResult(id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, summarize(res, v.Retry))
}

// summarize builds a loaded job result's JSON summary.
func summarize(res *JobResult, retry remote.Stats) ResultSummary {
	return ResultSummary{
		Instructions:       res.Result.Instructions,
		Operations:         res.Result.Operations,
		Syscalls:           res.Result.Syscalls,
		CriticalPath:       res.Result.CriticalPath,
		Available:          res.Result.Available,
		Branches:           res.Result.Branches,
		Mispredictions:     res.Result.Mispredictions,
		MaxLiveMemoryWords: res.Result.MaxLiveMemoryWords,
		ReadStats:          res.ReadStats,
		Retry:              retry,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// maxJSONBody bounds every JSON request body the daemon decodes. Those
// bodies are small control messages — a trace location, a job spec, a
// worker name, a failure reason — so 1 MiB is generous; the artifact a
// worker uploads to /complete is not JSON and is not covered.
const maxJSONBody = 1 << 20

// decodeJSON decodes r's JSON body into v, reading at most maxJSONBody
// bytes of it.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(v)
}

// bodyError answers a request whose body could not be used: 413 when it
// ran over maxJSONBody, otherwise 400 with msg.
func bodyError(w http.ResponseWriter, err error, msg string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	httpError(w, http.StatusBadRequest, msg)
}

func newID(prefix string) string {
	b := make([]byte, 6)
	rand.Read(b)
	return prefix + hex.EncodeToString(b)
}
