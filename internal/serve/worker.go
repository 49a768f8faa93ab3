package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"paragraph/internal/core"
	"paragraph/internal/remote"
	"paragraph/internal/shard"
)

// WorkerOptions configures a fleet Worker (pgserved -join). The zero
// value of every field selects the default noted on it.
type WorkerOptions struct {
	// Coordinator is the base URL of the coordinator daemon. Required.
	Coordinator string
	// Name identifies this worker in leases and job status. Required.
	Name string
	// Client issues every request (control plane and trace fetches); nil
	// selects http.DefaultClient. Tests inject the chaos transport here.
	Client *http.Client
	// Heartbeat is the lease renewal interval. 0 derives TTL/3 from each
	// granted lease.
	Heartbeat time.Duration
	// Poll is the backoff between acquire attempts after an error or an
	// empty answer. 0 selects 250ms.
	Poll time.Duration
	// LongPoll is how long one acquire request parks on the coordinator's
	// offer watch waiting for work. 0 selects 25s (the coordinator caps
	// requests at 30s). Idle chatter scales with 1/LongPoll: a parked
	// request costs nothing until an offer is enqueued.
	LongPoll time.Duration
	// Seed seeds retry jitter for trace fetches.
	Seed int64
	// Sleep replaces every wait; tests inject a no-op. nil selects real
	// context-aware sleeps.
	Sleep func(time.Duration)
}

// WorkerStats counts what a worker did.
type WorkerStats struct {
	// Acquired counts leases granted to this worker.
	Acquired int
	// Completed counts attempts whose artifact the coordinator accepted.
	Completed int
	// Failed counts attempts reported failed (including contained panics).
	Failed int
	// Lost counts leases the coordinator declared gone mid-attempt — the
	// worker's view of an expiry or a coordinator drain.
	Lost int
}

// Worker is one fleet member: it pulls shard leases from a coordinator,
// fetches its shard's trace bytes over HTTP ranges, runs the attempt with
// the same panic containment a local executor provides, heartbeats the
// lease while working, and uploads the artifact (or reports the failure,
// classified permanent/panic/transient exactly as a local attempt would
// classify). A worker holds one lease at a time; run more workers for
// more parallelism.
type Worker struct {
	opts WorkerOptions
	base *url.URL

	mu      sync.Mutex
	sources map[string]*remote.Source
	st      WorkerStats

	// Test hooks: beforeComplete fires between the attempt finishing and
	// the upload (kill-window injection); stallHeartbeats suppresses lease
	// renewal while set (partition simulation).
	beforeComplete  func(lm *LeaseMsg)
	stallHeartbeats atomic.Bool
}

// NewWorker builds a Worker against the coordinator.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" || opts.Name == "" {
		return nil, fmt.Errorf("worker: coordinator URL and name are required")
	}
	base, err := url.Parse(opts.Coordinator)
	if err != nil {
		return nil, fmt.Errorf("worker: bad coordinator URL %q: %w", opts.Coordinator, err)
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.Poll <= 0 {
		opts.Poll = 250 * time.Millisecond
	}
	if opts.LongPoll <= 0 {
		opts.LongPoll = 25 * time.Second
	}
	return &Worker{opts: opts, base: base, sources: make(map[string]*remote.Source)}, nil
}

// Stats returns a snapshot of the worker's accounting.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.st
}

func (w *Worker) count(f func(*WorkerStats)) {
	w.mu.Lock()
	f(&w.st)
	w.mu.Unlock()
}

// Run is the worker loop: acquire a lease, run it, repeat until ctx is
// canceled. A coordinator with no work (or one that is unreachable or
// draining) just means sleeping a poll interval and asking again — a
// worker is stateless and survives any coordinator restart.
func (w *Worker) Run(ctx context.Context) error {
	for ctx.Err() == nil {
		lm, err := w.acquire(ctx)
		switch {
		case ctx.Err() != nil:
			return nil
		case err != nil || lm == nil:
			if err := w.wait(ctx, w.opts.Poll); err != nil {
				return nil
			}
		default:
			w.runLease(ctx, lm)
		}
	}
	return nil
}

// wait sleeps d, honoring ctx and the Sleep hook.
func (w *Worker) wait(ctx context.Context, d time.Duration) error {
	if w.opts.Sleep != nil {
		w.opts.Sleep(d)
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acquire asks the coordinator for one lease: nil with no error means no
// work right now. The request parks on the coordinator's offer watch for
// up to LongPoll, so an idle worker holds one open request instead of
// cycling poll-interval sleeps; Poll only paces retries after errors and
// empty answers.
func (w *Worker) acquire(ctx context.Context) (*LeaseMsg, error) {
	body, _ := json.Marshal(map[string]any{
		"worker":  w.opts.Name,
		"wait_ms": w.opts.LongPoll.Milliseconds(),
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.endpoint("/v1/leases"), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		var lm LeaseMsg
		if err := json.NewDecoder(resp.Body).Decode(&lm); err != nil {
			return nil, fmt.Errorf("worker: decoding lease: %w", err)
		}
		w.count(func(st *WorkerStats) { st.Acquired++ })
		return &lm, nil
	case http.StatusNoContent, http.StatusServiceUnavailable:
		// No work, or the coordinator is draining: either way, poll later.
		if ra := remote.ParseRetryAfter(resp.Header); ra > 0 {
			w.wait(ctx, min(ra, 4*w.opts.Poll))
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("worker: acquire answered %s", resp.Status)
	}
}

// runLease runs one granted lease end to end: heartbeats in the
// background, executes the attempt, then reports the outcome while the
// heartbeats are still renewing (an upload can be slow; the lease must
// stay live under it).
func (w *Worker) runLease(ctx context.Context, lm *LeaseMsg) {
	// The attempt aborts when the lease is lost; the report path keeps the
	// worker's root context so a lost lease cannot also strand the report.
	actx, abandon := context.WithCancel(ctx)
	defer abandon()
	stopHB := make(chan struct{})
	hbExited := make(chan struct{})
	go func() {
		defer close(hbExited)
		w.heartbeat(ctx, stopHB, lm, abandon)
	}()
	payload, execErr := w.execute(actx, lm)
	switch {
	case actx.Err() != nil && ctx.Err() == nil:
		// Lease lost mid-attempt: the coordinator already expired it and
		// re-offered the shard; there is nothing to report.
		w.count(func(st *WorkerStats) { st.Lost++ })
	case ctx.Err() != nil:
		// Departing (SIGTERM): fail fast so the coordinator re-offers the
		// shard now instead of waiting out the TTL. Best effort on a short
		// deadline — expiry covers us if the report does not land.
		nctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := w.fail(nctx, lm.ID, leaseFail{Reason: "worker departing"}); err != nil {
			w.count(func(st *WorkerStats) { st.Lost++ })
		} else {
			w.count(func(st *WorkerStats) { st.Failed++ })
		}
		cancel()
	case execErr == nil:
		if w.beforeComplete != nil {
			w.beforeComplete(lm)
		}
		if ctx.Err() != nil {
			break // killed inside the hook: the lease expires on its own
		}
		if err := w.complete(ctx, lm.ID, payload); err != nil {
			w.count(func(st *WorkerStats) { st.Lost++ })
		} else {
			w.count(func(st *WorkerStats) { st.Completed++ })
		}
	default:
		lf := leaseFail{Reason: execErr.Error(), Permanent: remote.IsPermanent(execErr)}
		var pe *workerPanicError
		if errors.As(execErr, &pe) {
			lf.Panicked = true
		}
		if err := w.fail(ctx, lm.ID, lf); err != nil {
			w.count(func(st *WorkerStats) { st.Lost++ })
		} else {
			w.count(func(st *WorkerStats) { st.Failed++ })
		}
	}
	close(stopHB)
	<-hbExited
}

// heartbeat renews the lease until told to stop; a Gone answer abandons
// the running attempt. Transient renewal failures are tolerated — the
// coordinator's TTL, not one lost packet, decides when a lease dies.
func (w *Worker) heartbeat(ctx context.Context, stop <-chan struct{}, lm *LeaseMsg, abandon context.CancelFunc) {
	interval := w.opts.Heartbeat
	if interval <= 0 {
		interval = time.Duration(lm.TTLMillis) * time.Millisecond / 3
	}
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-ticker.C:
			if w.stallHeartbeats.Load() {
				continue
			}
			gone, err := w.renew(ctx, lm.ID)
			if err == nil && gone {
				abandon()
				return
			}
		}
	}
}

// renew posts one heartbeat; gone means the lease no longer exists.
func (w *Worker) renew(ctx context.Context, id string) (gone bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.endpoint("/v1/leases/"+id+"/renew"), nil)
	if err != nil {
		return false, err
	}
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer drainClose(resp.Body)
	switch {
	case resp.StatusCode == http.StatusOK:
		return false, nil
	case resp.StatusCode == http.StatusGone || resp.StatusCode == http.StatusNotFound:
		return true, nil
	default:
		return false, fmt.Errorf("worker: renew answered %s", resp.Status)
	}
}

// complete uploads the attempt artifact, retrying transient control-plane
// faults. A Gone answer means the lease expired under the upload — the
// coordinator will re-run the shard; the result is discarded.
func (w *Worker) complete(ctx context.Context, id string, payload []byte) error {
	return w.report(ctx, "/v1/leases/"+id+"/complete", "application/octet-stream", payload)
}

// fail reports a failed attempt with its classification.
func (w *Worker) fail(ctx context.Context, id string, lf leaseFail) error {
	body, _ := json.Marshal(lf)
	return w.report(ctx, "/v1/leases/"+id+"/fail", "application/json", body)
}

// report posts a terminal lease outcome, retrying transient faults
// (network errors, 429, 5xx) with a Retry-After-aware backoff. Conclusive
// answers — accepted, rejected, or lease gone — end the retries.
func (w *Worker) report(ctx context.Context, path, contentType string, body []byte) error {
	var lastErr error
	delay := 25 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if attempt > 0 {
			if err := w.wait(ctx, delay); err != nil {
				return err
			}
			delay *= 2
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.endpoint(path), bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := w.opts.Client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		status := resp.StatusCode
		if ra := remote.ParseRetryAfter(resp.Header); ra > 0 && (status == http.StatusTooManyRequests || status >= 500) {
			delay = min(ra, 8*time.Second)
		}
		drainClose(resp.Body)
		switch {
		case status < 300:
			return nil
		case status == http.StatusTooManyRequests || status >= 500:
			lastErr = fmt.Errorf("worker: %s answered %d", path, status)
			continue
		default:
			// Conclusive: the lease is gone (410) or the artifact was
			// rejected (400) — retrying the same bytes cannot help.
			return fmt.Errorf("worker: %s answered %d", path, status)
		}
	}
	return fmt.Errorf("worker: %s: giving up after 8 attempts: %w", path, lastErr)
}

// workerPanicError marks an attempt that panicked, so the failure report
// carries the same classification a locally contained panic gets.
type workerPanicError struct{ v any }

func (e *workerPanicError) Error() string {
	return fmt.Sprintf("panic contained: %v", e.v)
}

// execute runs one leased attempt: fetch the shard's byte range, analyze it
// as it decodes (chain: from the shipped entry checkpoint; delta: with no
// entry state), and serialize the artifact for upload. Panics anywhere
// inside convert to a classified failure instead of killing the worker.
func (w *Worker) execute(ctx context.Context, lm *LeaseMsg) (payload []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			payload, err = nil, &workerPanicError{v: v}
		}
	}()
	src, err := w.source(ctx, lm.TraceURL)
	if err != nil {
		return nil, err
	}
	sh := lm.Shard
	sect, start, end, err := src.Section(ctx, sh.Start, sh.End)
	if err != nil {
		return nil, err
	}
	sh.Start, sh.End = start, end
	var buf bytes.Buffer
	if lm.Kind == kindDelta {
		d, err := shard.BuildDeltaBytes(ctx, sect, lm.Config, sh, lm.Degraded, lm.Shards)
		if err != nil {
			return nil, err
		}
		if err := shard.WriteDelta(&buf, d); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	var a *core.Analyzer
	if len(lm.Checkpoint) > 0 {
		cp, err := core.ReadCheckpoint(bytes.NewReader(lm.Checkpoint))
		if err != nil {
			return nil, fmt.Errorf("worker: decoding entry checkpoint: %w", err)
		}
		a = cp.Restore()
	} else {
		a = core.NewAnalyzer(lm.Config)
	}
	part, cp, err := shard.RunShardBytes(ctx, a, sect, lm.Config, sh, lm.Degraded, lm.Shards, lm.WantCheckpoint)
	if err != nil {
		return nil, err
	}
	if err := shard.WriteResult(&buf, part, cp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// source resolves and caches a remote.Source per trace URL. Lease URLs
// for coordinator-hosted traces are coordinator-relative.
func (w *Worker) source(ctx context.Context, traceURL string) (*remote.Source, error) {
	abs := traceURL
	if u, err := url.Parse(traceURL); err == nil && !u.IsAbs() {
		abs = w.base.ResolveReference(u).String()
	}
	w.mu.Lock()
	src := w.sources[abs]
	w.mu.Unlock()
	if src != nil {
		return src, nil
	}
	src, err := remote.Open(ctx, abs, remote.Options{
		Client: w.opts.Client, Seed: w.opts.Seed, Sleep: w.opts.Sleep,
	})
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.sources[abs] = src
	w.mu.Unlock()
	return src, nil
}

func (w *Worker) endpoint(path string) string {
	u, err := url.Parse(path)
	if err != nil {
		return w.opts.Coordinator + path
	}
	return w.base.ResolveReference(u).String()
}

// drainClose drains (bounded) and closes a response body so the
// connection is reusable.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}
