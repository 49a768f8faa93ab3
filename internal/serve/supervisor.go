package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"paragraph/internal/core"
	"paragraph/internal/remote"
	"paragraph/internal/shard"
)

// Job states. A job is terminal in done, degraded or failed; queued and
// running jobs are resumable — a daemon restart re-queues them and they
// continue from the last completed shard.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateDegraded = "degraded"
	StateFailed   = "failed"
)

// shardProgress is one shard's live status inside a job view. Worker
// names the fleet worker holding (or last holding) the shard's lease;
// empty means the attempt ran locally.
type shardProgress struct {
	State    string `json:"state"` // pending, running, done, failed
	Attempts int    `json:"attempts"`
	Events   uint64 `json:"events"`
	Worker   string `json:"worker,omitempty"`
}

// job is the in-memory runtime of one analysis job. Everything a handler
// reads is behind mu; the worker goroutine running the job is the only
// writer (lease bookkeeping — noteWorker, noteLeaseExpired — also writes,
// from the HTTP handlers and the sweeper).
type job struct {
	spec JobSpec

	mu            sync.Mutex
	state         string
	shards        []shardProgress
	retry         remote.Stats
	leaseExpiries int
	degraded      *DegradedMark
	errMsg        string
	subs          map[chan JobEvent]struct{}
}

// errInterrupted marks a job stopped by drain or shutdown rather than
// failed: it stays resumable and is never marked degraded.
var errInterrupted = errors.New("serve: interrupted")

// runJob is the worker entry point: it drives the job to a terminal state
// or leaves it queued when interrupted.
func (s *Server) runJob(j *job) {
	err := s.runJobChain(j)
	switch {
	case err == nil:
		// terminal state already set (done or degraded)
	case errors.Is(err, errInterrupted):
		j.setState(StateQueued) // resumable: a restart picks it up from disk
	default:
		j.fail(err)
	}
}

// runJobChain runs one job's shard chain: acquire the trace, plan (or load
// the persisted plan), then walk the shards in order, resuming from
// persisted shard results and supervising each remaining shard through its
// attempt budget. Completion and degradation both return nil — the job
// state carries the distinction.
func (s *Server) runJobChain(j *job) error {
	spec := j.spec
	ti, ok := s.traceInfo(spec.TraceID)
	if !ok {
		return fmt.Errorf("job %s: unknown trace %q", spec.ID, spec.TraceID)
	}
	j.setState(StateRunning)

	// Acquire the input. Local traces are read whole; remote traces are
	// probed now and fetched per shard range later.
	var data []byte
	var src *remote.Source
	if ti.Remote {
		var err error
		src, err = remote.Open(s.ctx, ti.Location, s.remoteOpts(spec.ID))
		if err != nil {
			if s.ctx.Err() != nil {
				return errInterrupted
			}
			return fmt.Errorf("job %s: opening remote trace: %w", spec.ID, err)
		}
		j.setRetry(src.Stats())
	} else {
		var err error
		data, err = os.ReadFile(ti.Location)
		if err != nil {
			return fmt.Errorf("job %s: reading trace: %w", spec.ID, err)
		}
	}

	plan, err := s.jobPlan(j, src, data)
	if err != nil {
		if s.ctx.Err() != nil {
			return errInterrupted
		}
		return fmt.Errorf("job %s: %w", spec.ID, err)
	}
	j.initShards(len(plan.Shards))

	if spec.Speculate {
		return s.runJobSplice(j, ti, src, data, plan)
	}

	ns := len(plan.Shards)
	parts := make([]*shard.Result, ns)
	var prevCP *core.Checkpoint
	for i := 0; i < ns; i++ {
		if s.interrupted() {
			return errInterrupted
		}
		// Resume: a persisted shard result is complete (atomic rename), so
		// its checkpoint seeds the next shard exactly as a live run would.
		if part, cp, err := shard.LoadResult(s.st.shardPath(spec.ID, i)); err == nil {
			parts[i], prevCP = part, cp
			j.shardDone(i, part.Events)
			continue
		}
		out, err := s.supervise(j, ti, src, data, plan, i, kindChain, prevCP)
		if err != nil {
			if errors.Is(err, errInterrupted) {
				return errInterrupted
			}
			// Retries exhausted or a permanent fault: the checkpoint chain
			// is broken at shard i, so later shards cannot run.
			return s.degrade(j, i, err.Error())
		}
		if err := shard.SaveResult(s.st.shardPath(spec.ID, i), out.part, out.cp); err != nil {
			return fmt.Errorf("job %s: persisting shard %d: %w", spec.ID, i, err)
		}
		parts[i], prevCP = out.part, out.cp
		j.shardDone(i, out.part.Events)
		if s.afterShard != nil {
			s.afterShard(spec.ID, i)
		}
	}

	return s.finishJob(j, parts)
}

// runJobSplice is the speculative job engine: every unfinished shard's
// delta builds concurrently under the same supervision as a chained shard
// (attempt budget, panic containment, remote Section fetch per attempt,
// persisted atomically), then one sequential splice applies the deltas in
// order, persisting the same shard-N.pgsr files — result plus outgoing
// checkpoint — the chained path writes. A restarted job therefore resumes
// from whichever artifacts exist (finished shard results are skipped,
// persisted deltas are reused, the rest rebuild), and a shard that cannot
// be built or spliced degrades the job at that shard exactly as a broken
// chain would.
func (s *Server) runJobSplice(j *job, ti TraceInfo, src *remote.Source, data []byte, plan *shard.Plan) error {
	spec := j.spec
	ns := len(plan.Shards)
	parts := make([]*shard.Result, ns)
	cps := make([]*core.Checkpoint, ns)
	resumed := make([]bool, ns)
	for i := 0; i < ns; i++ {
		if part, cp, err := shard.LoadResult(s.st.shardPath(spec.ID, i)); err == nil {
			parts[i], cps[i], resumed[i] = part, cp, true
			j.shardDone(i, part.Events)
		}
	}

	// Every unfinished delta is offered at once: the local executor pool
	// bounds in-process concurrency globally, and any fleet worker can
	// claim the rest — no per-job semaphore.
	deltas := make([]*shard.Delta, ns)
	buildErrs := make([]error, ns)
	var wg sync.WaitGroup
	for i := 0; i < ns; i++ {
		if resumed[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			deltas[i], buildErrs[i] = s.superviseDelta(j, ti, src, data, plan, i)
		}(i)
	}
	wg.Wait()

	var a *core.Analyzer
	for i := 0; i < ns; i++ {
		if s.interrupted() {
			return errInterrupted
		}
		if resumed[i] {
			if cps[i] != nil {
				a = cps[i].Restore()
			}
			continue
		}
		if err := buildErrs[i]; err != nil {
			if errors.Is(err, errInterrupted) {
				return errInterrupted
			}
			// The splice cannot pass shard i, exactly like a broken
			// checkpoint chain.
			return s.degrade(j, i, err.Error())
		}
		if a == nil {
			// Only reachable at shard 0: every persisted non-final shard
			// result carries its outgoing checkpoint.
			a = core.NewAnalyzer(spec.Config)
		}
		d := deltas[i]
		part, cp, err := shard.RunShardDelta(a, d.D, spec.Config, d.ReadStats, i, ns, i < ns-1)
		if err != nil {
			j.shardFailed(i)
			return s.degrade(j, i, err.Error())
		}
		if err := shard.SaveResult(s.st.shardPath(spec.ID, i), part, cp); err != nil {
			return fmt.Errorf("job %s: persisting shard %d: %w", spec.ID, i, err)
		}
		parts[i] = part
		j.shardDone(i, part.Events)
		if s.afterShard != nil {
			s.afterShard(spec.ID, i)
		}
	}

	return s.finishJob(j, parts)
}

// degrade marks the job degraded at shard i, which exhausted its attempts
// or hit a permanent fault: the completed shards keep their persisted
// results, the mirror of the trace format's degraded reads. It returns nil,
// as a finished job does; the job state carries the distinction.
func (s *Server) degrade(j *job, i int, reason string) error {
	mark := DegradedMark{Shard: i, Attempts: j.shardAttempts(i), Reason: reason}
	if err := s.st.saveDegraded(j.spec.ID, mark); err != nil {
		return fmt.Errorf("job %s: persisting degradation: %w", j.spec.ID, err)
	}
	j.setDegraded(&mark, i)
	return nil
}

// finishJob merges a job's shard results, persists the merged result and
// marks the job done.
func (s *Server) finishJob(j *job, parts []*shard.Result) error {
	res, rs, err := shard.Merge(parts)
	if err != nil {
		return fmt.Errorf("job %s: merging shard results: %w", j.spec.ID, err)
	}
	if err := s.st.saveResult(j.spec.ID, &JobResult{Result: res, ReadStats: rs}); err != nil {
		return fmt.Errorf("job %s: persisting result: %w", j.spec.ID, err)
	}
	j.setState(StateDone)
	return nil
}

// superviseDelta builds one shard's speculative delta through supervise,
// reusing a delta persisted by an earlier (killed) run of the job and
// persisting a fresh one. It is safe to call concurrently for different
// shards: remote Section fetches, progress notes and backoff draws are all
// internally locked.
func (s *Server) superviseDelta(j *job, ti TraceInfo, src *remote.Source, data []byte, plan *shard.Plan, i int) (*shard.Delta, error) {
	if d, err := shard.LoadDelta(s.st.deltaPath(j.spec.ID, i)); err == nil &&
		d.Index == i && d.Shards == len(plan.Shards) && d.D.StartEvent == plan.Shards[i].StartEvent {
		return d, nil
	}
	out, err := s.supervise(j, ti, src, data, plan, i, kindDelta, nil)
	if err != nil {
		return nil, err
	}
	if serr := shard.SaveDelta(s.st.deltaPath(j.spec.ID, i), out.delta); serr != nil {
		return nil, fmt.Errorf("shard %d: persisting delta: %w", i, serr)
	}
	return out.delta, nil
}

// jobPlan loads the persisted shard plan or computes and persists it. The
// plan is written before the first shard runs, so a resumed job always
// re-uses the original cut points and checks that the trace it resumes
// over is the one it planned: a local job, which has just read the whole
// trace, compares the content's SHA-256 with the plan's, so even a trace
// rewritten at the same size fails the job instead of resuming from shard
// results of the old bytes. A remote job compares the size alone, because
// a resume fetches only the unfinished shards' ranges. (A plan persisted
// without a hash gets the size check too.)
func (s *Server) jobPlan(j *job, src *remote.Source, data []byte) (*shard.Plan, error) {
	spec := j.spec
	if plan, err := s.st.loadPlan(spec.ID); err == nil {
		size := int64(len(data))
		if src != nil {
			size = src.Size()
		}
		if plan.TraceBytes != size {
			return nil, fmt.Errorf("plan is for a %d-byte trace, input is %d bytes (trace changed?)", plan.TraceBytes, size)
		}
		if src == nil && plan.TraceSHA256 != "" {
			if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != plan.TraceSHA256 {
				return nil, fmt.Errorf("plan is for trace content with SHA-256 %s, input hashes to %x (trace changed)", plan.TraceSHA256, sum)
			}
		}
		if plan.Degraded != spec.Degraded {
			return nil, fmt.Errorf("plan read mode (degraded=%v) does not match spec (degraded=%v)", plan.Degraded, spec.Degraded)
		}
		return plan, nil
	}
	// Planning needs the whole trace once; remote jobs release the buffer
	// afterwards and refetch only per-shard ranges (which is also why a
	// resumed remote job never downloads completed shards again).
	full := data
	if full == nil {
		var err error
		full, err = src.FetchAll(s.ctx)
		j.setRetry(src.Stats())
		if err != nil {
			return nil, fmt.Errorf("fetching trace for planning: %w", err)
		}
	}
	plan, err := s.scans.plan(spec.TraceID, full, spec.Shards, spec.Degraded)
	if err != nil {
		return nil, err
	}
	if err := s.st.savePlan(spec.ID, plan); err != nil {
		return nil, fmt.Errorf("persisting plan: %w", err)
	}
	return plan, nil
}

// supervise runs one shard attempt of the given kind through the shard's
// attempt budget: each attempt is offered to the shared queue, where a
// local executor runs it (runAttempt) and a leased fleet worker is bounded
// by its heartbeat TTL. Transient failures — including an expired lease —
// back off with seeded jitter and retry; permanent ones (and an exhausted
// budget) fail the shard. prevCP seeds chain attempts after shard 0.
func (s *Server) supervise(j *job, ti TraceInfo, src *remote.Source, data []byte, plan *shard.Plan, i int, kind string, prevCP *core.Checkpoint) (attemptOutcome, error) {
	var lastErr error
	for attempt := 1; attempt <= s.shardAttempts; attempt++ {
		if s.interrupted() {
			return attemptOutcome{}, errInterrupted
		}
		j.noteAttempt(i, attempt)
		out, derr := s.dispatch(&attemptOffer{
			j: j, ti: ti, plan: plan, shard: i, attempt: attempt, kind: kind,
			prevCP: prevCP, src: src, data: data, outcome: make(chan attemptOutcome, 1),
		})
		if derr != nil {
			return attemptOutcome{}, errInterrupted
		}
		if out.err == nil {
			return out, nil
		}
		if s.ctx.Err() != nil {
			// Root cancellation surfaces through the attempt context; it is
			// shutdown, not a shard failure.
			return attemptOutcome{}, errInterrupted
		}
		if remote.IsPermanent(out.err) {
			return attemptOutcome{}, fmt.Errorf("shard %d attempt %d: %w", i, attempt, out.err)
		}
		lastErr = out.err
		if attempt < s.shardAttempts {
			s.backoff(attempt)
		}
	}
	j.shardFailed(i)
	return attemptOutcome{}, fmt.Errorf("shard %d: retry budget exhausted after %d attempts: %w", i, s.shardAttempts, lastErr)
}

// runAttempt is one contained local attempt: fetch (remote) or slice
// (local) the shard's bytes and stream them, as they decode, either through
// an analyzer seeded from the previous shard's checkpoint (chain) or into
// a shard resolution with no entry state (delta). A panic anywhere inside —
// decode, analysis, or a fetch bug — converts to an error and counts as a
// failed attempt instead of killing the executor.
func (s *Server) runAttempt(off *attemptOffer) (out attemptOutcome) {
	i, j, plan := off.shard, off.j, off.plan
	defer func() {
		if v := recover(); v != nil {
			out = attemptOutcome{err: fmt.Errorf("shard %d: panic contained: %v", i, v)}
		}
	}()
	ctx := s.ctx
	if s.shardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(s.ctx, s.shardTimeout)
		defer cancel()
	}
	if s.beforeAttempt != nil {
		s.beforeAttempt(j.spec.ID, i)
	}

	sh := plan.Shards[i]
	buf := off.data
	if buf == nil {
		// Remote: fetch exactly this shard's byte range, stitched behind
		// the trace header so the section reader sees a well-formed file.
		sect, start, end, ferr := off.src.Section(ctx, sh.Start, sh.End)
		j.setRetry(off.src.Stats())
		if ferr != nil {
			return attemptOutcome{err: ferr}
		}
		sh.Start, sh.End = start, end
		buf = sect
	}
	if off.kind == kindDelta {
		out.delta, out.err = shard.BuildDeltaBytes(ctx, buf, j.spec.Config, sh, plan.Degraded, len(plan.Shards))
		return out
	}
	var a *core.Analyzer
	if off.prevCP != nil {
		// Restore clones per call, so a retried attempt starts from the
		// same pristine state every time, whatever a failed one consumed.
		a = off.prevCP.Restore()
	} else {
		a = core.NewAnalyzer(j.spec.Config)
	}
	want := i < len(plan.Shards)-1
	out.part, out.cp, out.err = shard.RunShardBytes(ctx, a, buf, j.spec.Config, sh, plan.Degraded, len(plan.Shards), want)
	return out
}

// backoff sleeps the supervisor's jittered exponential delay for the given
// attempt number, same curve as the remote reader: d in [base<<(n-1)/2,
// 3*base<<(n-1)/2), capped at retryMax.
func (s *Server) backoff(attempt int) {
	d := s.retryBase << uint(attempt-1)
	if d > s.retryMax || d <= 0 {
		d = s.retryMax
	}
	s.rngMu.Lock()
	d = d/2 + time.Duration(s.rng.Int63n(int64(d)))
	s.rngMu.Unlock()
	if s.sleep != nil {
		s.sleep(d)
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-s.ctx.Done():
	}
}

// interrupted reports whether the daemon is draining or shutting down.
func (s *Server) interrupted() bool {
	select {
	case <-s.drainCh:
		return true
	default:
	}
	return s.ctx.Err() != nil
}

func (j *job) setState(st string) {
	j.mu.Lock()
	j.state = st
	j.emitLocked(JobEvent{Shard: -1})
	j.mu.Unlock()
}

func (j *job) fail(err error) {
	j.mu.Lock()
	j.state = StateFailed
	j.errMsg = err.Error()
	j.emitLocked(JobEvent{Shard: -1})
	j.mu.Unlock()
}

func (j *job) setDegraded(mark *DegradedMark, i int) {
	j.mu.Lock()
	j.state = StateDegraded
	j.degraded = mark
	if i < len(j.shards) {
		j.shards[i].State = "failed"
	}
	j.emitLocked(JobEvent{Shard: i, ShardState: "failed"})
	j.mu.Unlock()
}

func (j *job) setRetry(st remote.Stats) {
	j.mu.Lock()
	j.retry = st
	j.mu.Unlock()
}

func (j *job) initShards(n int) {
	j.mu.Lock()
	if len(j.shards) != n {
		j.shards = make([]shardProgress, n)
	}
	for i := range j.shards {
		if j.shards[i].State == "" {
			j.shards[i].State = "pending"
		}
	}
	j.mu.Unlock()
}

func (j *job) noteAttempt(i, attempt int) {
	j.mu.Lock()
	if i < len(j.shards) {
		j.shards[i].State = "running"
		j.shards[i].Attempts = attempt
		j.shards[i].Worker = ""
		j.emitLocked(JobEvent{Shard: i, ShardState: "running", Attempts: attempt})
	}
	j.mu.Unlock()
}

// noteWorker records that the shard's current attempt is leased to the
// named fleet worker.
func (j *job) noteWorker(i int, worker string) {
	j.mu.Lock()
	if i < len(j.shards) {
		j.shards[i].Worker = worker
		j.emitLocked(JobEvent{Shard: i, ShardState: "running",
			Attempts: j.shards[i].Attempts, Worker: worker})
	}
	j.mu.Unlock()
}

// noteLeaseExpired counts a lease that lapsed without a heartbeat; the
// attempt itself fails through the normal transient path.
func (j *job) noteLeaseExpired(i int) {
	j.mu.Lock()
	j.leaseExpiries++
	if i < len(j.shards) {
		j.emitLocked(JobEvent{Shard: i, ShardState: "lease-expired",
			Attempts: j.shards[i].Attempts, Worker: j.shards[i].Worker})
	}
	j.mu.Unlock()
}

func (j *job) shardDone(i int, events uint64) {
	j.mu.Lock()
	if i < len(j.shards) {
		j.shards[i].State = "done"
		j.shards[i].Events = events
		j.emitLocked(JobEvent{Shard: i, ShardState: "done", Worker: j.shards[i].Worker})
	}
	j.mu.Unlock()
}

func (j *job) shardFailed(i int) {
	j.mu.Lock()
	if i < len(j.shards) {
		j.shards[i].State = "failed"
		j.emitLocked(JobEvent{Shard: i, ShardState: "failed", Attempts: j.shards[i].Attempts})
	}
	j.mu.Unlock()
}

func (j *job) shardAttempts(i int) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < len(j.shards) {
		return j.shards[i].Attempts
	}
	return 0
}
