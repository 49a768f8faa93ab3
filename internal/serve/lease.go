package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"paragraph/internal/core"
	"paragraph/internal/remote"
	"paragraph/internal/shard"
)

// Fleet mode: shard attempts are leased to remote workers over HTTP. The
// supervisor publishes each attempt onto one watch queue — a mutex-guarded
// FIFO with a one-token notify channel signaled on enqueue — and the local
// executor pool and the lease-acquire handler block on that channel until
// work exists, so a remote worker is just another place an attempt can run
// and an idle fleet parks in long-polls instead of sleep-and-retry
// spinning. A leased attempt
// that completes uploads its shard result (or delta) and the supervisor
// persists it exactly as it would a local one; a lease whose heartbeat
// lapses is expired by the sweeper and the failure consumes one unit of
// the shard's attempt budget — a crashed, hung, or partitioned worker is
// indistinguishable from a failed local attempt.

// offer claim states.
const (
	claimNone int32 = iota
	claimLocal
	claimLeased
	claimAbandoned
)

// Offer kinds: a chained shard attempt (RunShardBytes seeded from the
// previous shard's checkpoint) or a speculative delta build
// (entry-state-free).
const (
	kindChain = "chain"
	kindDelta = "delta"
)

// attemptOffer is one unit of shard work on the supervisor queue.
type attemptOffer struct {
	j       *job
	ti      TraceInfo
	plan    *shard.Plan
	shard   int
	attempt int
	kind    string
	prevCP  *core.Checkpoint // chain attempts after shard 0

	// Local executors run the attempt in-process from these.
	src  *remote.Source
	data []byte

	claimed atomic.Int32
	outcome chan attemptOutcome // buffered 1; exactly one claimant sends
}

// attemptOutcome is what a claimed attempt produced.
type attemptOutcome struct {
	part   *shard.Result
	cp     *core.Checkpoint
	delta  *shard.Delta
	worker string // empty for local attempts
	err    error
}

// claim transitions the offer to the given claimant; false means someone
// else (or abandonment) got there first.
func (o *attemptOffer) claim(state int32) bool {
	return o.claimed.CompareAndSwap(claimNone, state)
}

// enqueueOffer appends one attempt to the watch queue and rings its notify
// channel. The channel holds at most one token; nextOffer re-signals while
// items remain, so a dropped duplicate token never strands work.
func (s *Server) enqueueOffer(off *attemptOffer) {
	s.offerMu.Lock()
	s.pending = append(s.pending, off)
	s.offerMu.Unlock()
	s.notifyOffer()
}

func (s *Server) notifyOffer() {
	select {
	case s.offerNote <- struct{}{}:
	default:
	}
}

// nextOffer pops the oldest still-unclaimed offer, discarding abandoned
// debris (offers whose dispatch gave up during a drain). Like jobQueue.pop,
// it re-signals the notify channel when items remain, so one pop per wakeup
// cannot strand queued work behind a consumed token.
func (s *Server) nextOffer() *attemptOffer {
	s.offerMu.Lock()
	defer s.offerMu.Unlock()
	for len(s.pending) > 0 {
		off := s.pending[0]
		s.pending[0] = nil
		s.pending = s.pending[1:]
		if len(s.pending) > 0 {
			s.notifyOffer()
		}
		if off.claimed.Load() == claimNone {
			return off
		}
	}
	return nil
}

// dispatch publishes one attempt and waits for its outcome. During a drain
// it abandons unclaimed and leased offers immediately (the shard returns
// to the queue with the rest of the job; the dead entry is swept from the
// watch queue by the next pop), but waits out a locally running attempt —
// the executor is about to deliver, and Drain waits for it anyway.
func (s *Server) dispatch(off *attemptOffer) (attemptOutcome, error) {
	select {
	case <-s.drainCh:
		return attemptOutcome{}, errInterrupted
	case <-s.ctx.Done():
		return attemptOutcome{}, errInterrupted
	default:
	}
	s.enqueueOffer(off)
	select {
	case out := <-off.outcome:
		return out, nil
	case <-s.drainCh:
		if off.claim(claimAbandoned) || off.claimed.Load() != claimLocal {
			return attemptOutcome{}, errInterrupted
		}
		// A local executor is mid-attempt; take its outcome.
		select {
		case out := <-off.outcome:
			return out, nil
		case <-s.ctx.Done():
			return attemptOutcome{}, errInterrupted
		}
	case <-s.ctx.Done():
		return attemptOutcome{}, errInterrupted
	}
}

// shardExecutor is one local attempt runner. Executors and remote workers
// block on the same watch channel; an executor that pops abandoned debris
// (or loses a claim race with a drain) just waits for the next signal.
func (s *Server) shardExecutor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.drainCh:
			return
		case <-s.offerNote:
			off := s.nextOffer()
			if off == nil || !off.claim(claimLocal) {
				continue
			}
			off.outcome <- s.runAttempt(off)
		}
	}
}

// lease is one outstanding remote claim on an offer. Removal from the
// table is the single-completion guard: complete, fail and expiry all
// remove-then-act, so exactly one of them delivers the outcome.
type lease struct {
	id     string
	off    *attemptOffer
	worker string
	expiry time.Time
}

// LeaseMsg is the wire form of a granted lease: everything a worker needs
// to run the attempt without further coordinator state. TraceURL is
// absolute for remote trace stores; for locally registered traces it is a
// coordinator-relative path (the coordinator serves the bytes itself via
// GET /v1/traces/{id}/data).
type LeaseMsg struct {
	ID             string      `json:"id"`
	Job            string      `json:"job"`
	Shard          shard.Shard `json:"shard"`
	Shards         int         `json:"shards"`
	Kind           string      `json:"kind"`
	Config         core.Config `json:"config"`
	Degraded       bool        `json:"degraded"`
	WantCheckpoint bool        `json:"want_checkpoint"`
	TraceURL       string      `json:"trace_url"`
	Checkpoint     []byte      `json:"checkpoint,omitempty"` // core.WriteCheckpoint bytes
	TTLMillis      int64       `json:"ttl_ms"`
	Attempt        int         `json:"attempt"`
}

// leaseFail is the body of POST /v1/leases/{id}/fail.
type leaseFail struct {
	Reason    string `json:"reason"`
	Permanent bool   `json:"permanent"`
	Panicked  bool   `json:"panicked"`
}

// errLeaseExpired marks an attempt lost to a missed heartbeat. It is
// transient by construction: the next attempt re-offers the shard.
type leaseExpiredError struct {
	worker string
	shard  int
}

func (e *leaseExpiredError) Error() string {
	return fmt.Sprintf("shard %d: lease on worker %q expired without a heartbeat", e.shard, e.worker)
}

// takeOffer claims the next unclaimed offer for a lease, long-polling the
// watch channel for up to wait. ctx is the acquire request's context: a
// worker that hangs up stops occupying the watch immediately instead of
// holding its handler until the poll deadline. A nil return means no work
// (or the daemon is stopping, or the caller left).
func (s *Server) takeOffer(ctx context.Context, wait time.Duration) *attemptOffer {
	var timeout <-chan time.Time
	if wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		timeout = timer.C
	}
	for {
		if off := s.nextOffer(); off != nil {
			if off.claim(claimLeased) {
				return off
			}
			continue // abandoned between pop and claim; try the next
		}
		if wait <= 0 {
			return nil
		}
		select {
		case <-s.offerNote:
			// Signaled: loop back to pop (which re-signals when more
			// offers remain, so sibling watchers wake too).
		case <-ctx.Done():
			return nil
		case <-s.drainCh:
			return nil
		case <-s.ctx.Done():
			return nil
		case <-timeout:
			return nil
		}
	}
}

// handleLeaseAcquire grants a lease on the next available shard attempt:
// 200 with a LeaseMsg, 204 when no work is available within the requested
// wait, 503 while draining.
func (s *Server) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker string `json:"worker"`
		WaitMS int64  `json:"wait_ms"`
	}
	if err := decodeJSON(w, r, &req); err != nil || req.Worker == "" {
		bodyError(w, err, "body must be {\"worker\": name, \"wait_ms\": n}")
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "draining: no new leases")
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > 30*time.Second {
		wait = 30 * time.Second
	}
	off := s.takeOffer(r.Context(), wait)
	if off == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	msg, err := s.grantLease(off, req.Worker)
	if err != nil {
		// The offer is claimed but cannot be shipped (checkpoint encoding
		// failure); deliver it back to the supervisor as a failed attempt.
		off.outcome <- attemptOutcome{worker: req.Worker, err: err}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, msg)
}

// grantLease registers the claimed offer in the lease table and builds its
// wire message.
func (s *Server) grantLease(off *attemptOffer, worker string) (*LeaseMsg, error) {
	sh := off.plan.Shards[off.shard]
	msg := &LeaseMsg{
		ID:             newID("l"),
		Job:            off.j.spec.ID,
		Shard:          sh,
		Shards:         len(off.plan.Shards),
		Kind:           off.kind,
		Config:         off.j.spec.Config,
		Degraded:       off.plan.Degraded,
		WantCheckpoint: off.kind == kindChain && off.shard < len(off.plan.Shards)-1,
		TTLMillis:      s.leaseTTL.Milliseconds(),
		Attempt:        off.attempt,
	}
	if off.ti.Remote {
		msg.TraceURL = off.ti.Location
	} else {
		msg.TraceURL = "/v1/traces/" + off.ti.ID + "/data"
	}
	if off.prevCP != nil {
		var buf bytes.Buffer
		if err := core.WriteCheckpoint(&buf, off.prevCP); err != nil {
			return nil, fmt.Errorf("lease: encoding shard %d entry checkpoint: %w", off.shard, err)
		}
		msg.Checkpoint = buf.Bytes()
	}
	l := &lease{id: msg.ID, off: off, worker: worker, expiry: time.Now().Add(s.leaseTTL)}
	s.leaseMu.Lock()
	s.leases[msg.ID] = l
	s.leaseMu.Unlock()
	off.j.noteWorker(off.shard, worker)
	return msg, nil
}

// takeLease removes and returns the lease, if it is still live. This is
// the only way to act on a lease, so complete/fail/expiry cannot race.
func (s *Server) takeLease(id string) *lease {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	l := s.leases[id]
	if l != nil {
		delete(s.leases, id)
	}
	return l
}

// handleLeaseRenew extends a live lease's expiry: 200 with the remaining
// TTL, 410 when the lease is gone (expired, completed, or invalidated by a
// drain) — the worker's signal to abandon the attempt.
func (s *Server) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	s.leaseMu.Lock()
	l := s.leases[id]
	if l != nil && !draining {
		l.expiry = time.Now().Add(s.leaseTTL)
	}
	s.leaseMu.Unlock()
	if l == nil || draining {
		httpError(w, http.StatusGone, "lease is gone")
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"ttl_ms": s.leaseTTL.Milliseconds()})
}

// handleLeaseComplete accepts the finished attempt's artifact — a shard
// result stream (chain) or delta stream (delta) — validates it against the
// lease, and delivers it to the waiting supervisor, which persists it
// through the same path as a local attempt.
func (s *Server) handleLeaseComplete(w http.ResponseWriter, r *http.Request) {
	l := s.takeLease(r.PathValue("id"))
	if l == nil {
		httpError(w, http.StatusGone, "lease is gone")
		return
	}
	out := attemptOutcome{worker: l.worker}
	switch l.off.kind {
	case kindDelta:
		d, err := shard.ReadDelta(r.Body)
		if err == nil {
			err = validateDelta(d, l.off)
		}
		if err != nil {
			out.err = fmt.Errorf("shard %d: worker %s upload: %w", l.off.shard, l.worker, err)
		} else {
			out.delta = d
		}
	default:
		part, cp, err := shard.ReadResult(r.Body)
		if err == nil {
			err = validatePart(part, cp, l.off)
		}
		if err != nil {
			out.err = fmt.Errorf("shard %d: worker %s upload: %w", l.off.shard, l.worker, err)
		} else {
			out.part, out.cp = part, cp
		}
	}
	l.off.outcome <- out
	if out.err != nil {
		httpError(w, http.StatusBadRequest, out.err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
}

// validatePart checks an uploaded chain result against the leased shard:
// its place in the plan, its event range, and the event offset of its
// outgoing checkpoint, which seeds the next shard.
func validatePart(part *shard.Result, cp *core.Checkpoint, off *attemptOffer) error {
	sh := off.plan.Shards[off.shard]
	switch {
	case part.Index != sh.Index || part.Shards != len(off.plan.Shards):
		return fmt.Errorf("result is shard %d/%d, lease was %d/%d", part.Index, part.Shards, sh.Index, len(off.plan.Shards))
	case part.StartEvent != sh.StartEvent:
		return fmt.Errorf("result starts at event %d, shard starts at %d", part.StartEvent, sh.StartEvent)
	case part.Events != sh.Events:
		return fmt.Errorf("result covers %d events, shard has %d", part.Events, sh.Events)
	case off.shard < len(off.plan.Shards)-1 && cp == nil:
		return fmt.Errorf("non-final shard uploaded without its outgoing checkpoint")
	case cp != nil && cp.EventOffset != sh.StartEvent+sh.Events:
		return fmt.Errorf("checkpoint is at event %d, shard ends at %d", cp.EventOffset, sh.StartEvent+sh.Events)
	}
	return nil
}

// validateDelta checks an uploaded speculative delta against the lease:
// its place in the plan and its event range.
func validateDelta(d *shard.Delta, off *attemptOffer) error {
	sh := off.plan.Shards[off.shard]
	switch {
	case d.Index != sh.Index || d.Shards != len(off.plan.Shards):
		return fmt.Errorf("delta is shard %d/%d, lease was %d/%d", d.Index, d.Shards, sh.Index, len(off.plan.Shards))
	case d.D.StartEvent != sh.StartEvent:
		return fmt.Errorf("delta starts at event %d, shard starts at %d", d.D.StartEvent, sh.StartEvent)
	case d.D.Events != sh.Events:
		return fmt.Errorf("delta covers %d events, shard has %d", d.D.Events, sh.Events)
	}
	return nil
}

// handleLeaseFail records a worker-reported failure. Permanent failures
// classify exactly like local permanent errors (no further attempts);
// panics and everything else count as one failed attempt and retry.
func (s *Server) handleLeaseFail(w http.ResponseWriter, r *http.Request) {
	var req leaseFail
	if err := decodeJSON(w, r, &req); err != nil {
		bodyError(w, err, "body must be {\"reason\", \"permanent\", \"panicked\"}")
		return
	}
	l := s.takeLease(r.PathValue("id"))
	if l == nil {
		httpError(w, http.StatusGone, "lease is gone")
		return
	}
	var err error
	switch {
	case req.Permanent:
		err = &remote.PermanentError{URL: "worker " + l.worker, Reason: req.Reason}
	case req.Panicked:
		err = fmt.Errorf("shard %d: panic contained on worker %s: %s", l.off.shard, l.worker, req.Reason)
	default:
		err = fmt.Errorf("shard %d: worker %s: %s", l.off.shard, l.worker, req.Reason)
	}
	l.off.outcome <- attemptOutcome{worker: l.worker, err: err}
	writeJSON(w, http.StatusOK, map[string]string{"status": "recorded"})
}

// handleTraceData serves a locally registered trace's bytes, with Range
// support, so fleet workers pull shard ranges from the coordinator exactly
// as they would from any remote trace store.
func (s *Server) handleTraceData(w http.ResponseWriter, r *http.Request) {
	ti, ok := s.traceInfo(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such trace")
		return
	}
	if ti.Remote {
		// Remote traces are leased by their own URL; send the worker there.
		http.Redirect(w, r, ti.Location, http.StatusTemporaryRedirect)
		return
	}
	http.ServeFile(w, r, ti.Location)
}

// sweepLeases expires every lease whose heartbeat lapsed, charging the
// miss to the shard's attempt budget.
func (s *Server) sweepLeases(now time.Time) {
	var expired []*lease
	s.leaseMu.Lock()
	for id, l := range s.leases {
		if now.After(l.expiry) {
			delete(s.leases, id)
			expired = append(expired, l)
		}
	}
	s.leaseMu.Unlock()
	for _, l := range expired {
		l.off.j.noteLeaseExpired(l.off.shard)
		l.off.outcome <- attemptOutcome{worker: l.worker, err: &leaseExpiredError{worker: l.worker, shard: l.off.shard}}
	}
}

// leaseSweeper is the expiry loop; it runs from Start until shutdown.
func (s *Server) leaseSweeper() {
	defer s.wg.Done()
	tick := s.leaseTTL / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.drainCh:
			// Draining: outstanding leases die with their offers (renew
			// answers Gone), so there is nothing left to sweep.
			return
		case now := <-ticker.C:
			s.sweepLeases(now)
		}
	}
}
