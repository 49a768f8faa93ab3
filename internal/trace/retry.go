package trace

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"time"
)

// RetryReader wraps an io.Reader and retries transient read failures with
// seeded-jitter exponential backoff. Trace inputs are often remote or
// contended — an NFS mount mid-failover, an object store throttling, a pipe
// from a flaky producer — where a read that fails now succeeds a few
// milliseconds later. Wrapping the input in a RetryReader turns those
// hiccups into latency instead of aborted analyses, without weakening any
// integrity check downstream (the chunk CRCs still decide what is valid).
//
// Only errors classified transient are retried; everything else — including
// io.EOF — passes straight through. A read that keeps failing after
// MaxAttempts returns the last error, so permanent failures still fail.
type RetryReader struct {
	r    io.Reader
	opts RetryOptions
	rng  *rand.Rand
	st   RetryStats
}

// RetryOptions configures a RetryReader. The zero value selects the
// defaults noted on each field.
type RetryOptions struct {
	// MaxAttempts bounds how many times one Read call is attempted
	// (initial try + retries); 0 selects 5.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles on each
	// further retry. 0 selects 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 selects 250ms.
	MaxDelay time.Duration
	// Seed seeds the jitter PRNG, keeping retry timing reproducible in
	// tests and fault-injection runs.
	Seed int64
	// IsTransient classifies an error as retryable. nil selects
	// IsTransientError (the Temporary() bool convention).
	IsTransient func(error) bool
	// Ctx, when non-nil, cancels waiting: a backoff sleep returns early
	// with the context's error, so cancellation is never delayed by a
	// retry loop.
	Ctx context.Context
	// Sleep replaces the backoff sleep; tests inject a recorder here. nil
	// selects a context-aware time.Sleep.
	Sleep func(time.Duration)
}

// RetryStats accounts for what a RetryReader absorbed.
type RetryStats struct {
	// Retries counts reads that were retried at least once.
	Retries int
	// Attempts counts individual retry attempts.
	Attempts int
	// GaveUp counts reads that still failed after MaxAttempts.
	GaveUp int
	// Slept is the total backoff waited.
	Slept time.Duration
}

// IsTransientError reports whether err (or anything it wraps) advertises
// itself as temporary via the net-package convention `Temporary() bool`.
func IsTransientError(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// NewRetryReader wraps r with retry-with-backoff semantics.
func NewRetryReader(r io.Reader, opts RetryOptions) *RetryReader {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.BaseDelay <= 0 {
		opts.BaseDelay = time.Millisecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 250 * time.Millisecond
	}
	if opts.IsTransient == nil {
		opts.IsTransient = IsTransientError
	}
	return &RetryReader{r: r, opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// Stats returns the retry accounting so far.
func (r *RetryReader) Stats() RetryStats { return r.st }

// Read implements io.Reader. A transient error with no data is retried
// after a jittered exponential backoff. A transient error that arrives
// with data (n > 0) is dropped and the data delivered — the next Read
// retries from where the reader left off; any other error is delivered
// with its data, as io.Reader permits.
func (r *RetryReader) Read(p []byte) (int, error) {
	var err error
	for attempt := 0; attempt < r.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.st.Attempts++
			if werr := r.backoff(attempt); werr != nil {
				return 0, werr
			}
		}
		var n int
		n, err = r.r.Read(p)
		if n > 0 {
			// Deliver the data. A transient error is dropped, for the
			// next Read to retry; any other rides along.
			if err != nil && r.opts.IsTransient(err) {
				err = nil
			}
			return n, err
		}
		if err == nil || !r.opts.IsTransient(err) {
			return 0, err
		}
		if attempt == 0 {
			r.st.Retries++
		}
	}
	r.st.GaveUp++
	return 0, err
}

// backoff sleeps the jittered exponential delay for the given retry
// attempt (1-based), honoring cancellation.
func (r *RetryReader) backoff(attempt int) error {
	d := r.opts.BaseDelay << uint(attempt-1)
	if d > r.opts.MaxDelay || d <= 0 {
		d = r.opts.MaxDelay
	}
	// Jitter into [d/2, 3d/2) so synchronized retries from parallel
	// readers spread out instead of thundering together.
	d = d/2 + time.Duration(r.rng.Int63n(int64(d)))
	r.st.Slept += d
	if r.opts.Sleep != nil {
		r.opts.Sleep(d)
		return nil
	}
	if ctx := r.opts.Ctx; ctx != nil {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	time.Sleep(d)
	return nil
}
