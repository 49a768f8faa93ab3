package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"paragraph/internal/trace"
)

// ErrWorkloadTimeout is returned (wrapped in a WorkloadError) when a
// workload's simulate+analyze exceeds the suite's WorkloadTimeout budget.
var ErrWorkloadTimeout = errors.New("harness: workload exceeded its time budget")

// WorkloadError is one workload's failure within a suite experiment.
type WorkloadError struct {
	// Index is the workload's position in Suite.Workloads (and in the
	// experiment's result slice, whose row at this index is the failed
	// one).
	Index int
	// Workload is the workload's name.
	Workload string
	// Err is what failed: a compile/simulation error, an analysis error,
	// ErrWorkloadTimeout, or a recovered panic.
	Err error
	// Panicked reports that Err was recovered from a panic rather than
	// returned.
	Panicked bool
}

func (e *WorkloadError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("workload %s: panic: %v", e.Workload, e.Err)
	}
	return fmt.Sprintf("workload %s: %v", e.Workload, e.Err)
}

func (e *WorkloadError) Unwrap() error { return e.Err }

// SuiteError aggregates the failures of a continue-on-error experiment run.
// The experiment's results are still returned alongside it: rows for the
// workloads that succeeded are complete, failed rows carry the error.
type SuiteError struct {
	// Failures holds one entry per failed workload, in workload order.
	Total    int // workloads attempted
	Failures []*WorkloadError
}

func (e *SuiteError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "harness: %d of %d workloads failed", len(e.Failures), e.Total)
	for _, f := range e.Failures {
		b.WriteString("; ")
		b.WriteString(f.Error())
	}
	return b.String()
}

// Unwrap exposes the individual failures to errors.Is/As.
func (e *SuiteError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f
	}
	return out
}

// guardEvery is how many events pass between context checks; consulting the
// context on every event would measurably tax the simulation's hot loop
// (BenchmarkGuard quantifies the difference), while a 1024-event stride
// bounds the cancellation latency to microseconds at simulation speed.
const guardEvery = 1024

// ctxGuard is a trace.Sink wrapper that aborts the simulation when its
// context is cancelled or its deadline passes. The CPU simulator stops at
// the first sink error, so the abort propagates as the workload's run error.
type ctxGuard struct {
	inner trace.Sink
	ctx   context.Context
	n     uint64
}

// Event implements trace.Sink.
func (g *ctxGuard) Event(e *trace.Event) error {
	if g.inner != nil {
		if err := g.inner.Event(e); err != nil {
			return err
		}
	}
	g.n++
	if g.n%guardEvery == 0 {
		if err := g.ctx.Err(); err != nil {
			return ctxError(err, g.n)
		}
	}
	return nil
}

// ctxError maps a context failure onto the suite's error taxonomy: a passed
// deadline keeps its ErrWorkloadTimeout identity, and the underlying context
// error stays in the chain either way, so callers can classify with
// errors.Is against ErrWorkloadTimeout, context.DeadlineExceeded or
// context.Canceled as they prefer.
func ctxError(err error, n uint64) error {
	if errors.Is(err, context.DeadlineExceeded) {
		if n == 0 {
			return fmt.Errorf("%w: %w", ErrWorkloadTimeout, err)
		}
		return fmt.Errorf("%w after %d instructions: %w", ErrWorkloadTimeout, n, err)
	}
	if n == 0 {
		return fmt.Errorf("harness: canceled: %w", err)
	}
	return fmt.Errorf("harness: workload canceled after %d instructions: %w", n, err)
}

// guardSink wraps a workload's sink with a cancellation guard. A context
// that can never be cancelled (context.Background and friends report a nil
// Done channel) costs nothing: the sink is returned unwrapped, keeping the
// legacy hot path byte-identical.
func guardSink(ctx context.Context, sink trace.Sink) trace.Sink {
	if ctx.Done() == nil {
		return sink
	}
	return &ctxGuard{inner: sink, ctx: ctx}
}

// workloadContext derives one workload's run context from the experiment's:
// the suite's WorkloadTimeout, when set, becomes a per-workload deadline.
// The returned cancel func must be called when the workload finishes.
func (s *Suite) workloadContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.WorkloadTimeout > 0 {
		return context.WithTimeout(ctx, s.WorkloadTimeout)
	}
	return ctx, func() {}
}
