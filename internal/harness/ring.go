package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// EngineKind selects how AnalyzeMulti runs a multi-configuration analysis.
type EngineKind int

const (
	// EngineAuto streams a single configuration and takes EngineResolved
	// for more, at every worker count.
	EngineAuto EngineKind = iota
	// EngineStreaming is the serial reference engine: one simulation pass
	// feeds every analyzer in lockstep through trace.Tee.
	EngineStreaming
	// EngineBuffered is the legacy parallel engine: the whole trace is
	// recorded into a trace.EventBuffer, then fanned out to a worker pool.
	// Memory is proportional to trace length; kept for the differential
	// battery and for callers that replay a recording many times.
	EngineBuffered
	// EngineRing is the bounded full-analyzer engine: production and
	// analysis overlap through a trace.Ring, one analyzer goroutine per
	// configuration, with backpressure on the producer. Memory is a
	// function of configuration, not trace length. EngineAuto no longer
	// picks it; it stays as an explicit choice and as the differential
	// reference for EngineResolved.
	EngineRing
	// EngineResolved is the shared-extraction engine: one core.Resolver
	// consumes the stream once and its policy-free dependence records
	// reach one cheap core.Scheduler per configuration — through a bounded
	// segment ring whose displaced segments the resolver recycles, or
	// inline on a single CPU (see FanOutResolved). Tables 3 and 4 cost
	// 1× resolution + N× scheduling instead of N× full analysis. Simulation
	// and resolution share one producer goroutine, so for a single
	// workload on three or more idle cores EngineRing, which spreads full
	// analysis across cores, may still be faster; that case is unmeasured.
	EngineResolved
)

func (k EngineKind) String() string {
	switch k {
	case EngineAuto:
		return "auto"
	case EngineStreaming:
		return "streaming"
	case EngineBuffered:
		return "buffered"
	case EngineRing:
		return "ring"
	case EngineResolved:
		return "resolved"
	}
	return fmt.Sprintf("engine(%d)", int(k))
}

// FanOutStream analyzes one event stream under every configuration while
// the stream is being produced: produce writes events into a bounded
// trace.Ring (implementing trace.Sink/BatchSink) and one consumer
// goroutine per configuration replays them concurrently. Unlike FanOut,
// nothing proportional to trace length is ever held — the ring is
// `batches` slots of trace.DefaultBatchEvents events (0 selects
// trace.DefaultRingBatches), and the producer blocks when the slowest
// analyzer falls a full ring behind.
//
// produce must end the stream by returning (a nil error is a clean end);
// FanOutStream calls CloseSend itself. The ring's ReadStats — set by the
// producer via SetStats, mirroring ReadAll — are returned alongside the
// results so degraded-read skip accounting survives the streaming engine.
//
// Error semantics match FanOut: the lowest-index failing configuration
// decides the error (prefixed "config %d:"), a deadline expiry surfaces as
// ErrWorkloadTimeout, and a panicking producer or analyzer is contained as
// an error. A producer failure is reported once, as itself, not once per
// configuration. All goroutines drain before FanOutStream returns.
func FanOutStream(ctx context.Context, produce func(*trace.Ring) error, cfgs []core.Config, batches int) ([]*core.Result, trace.ReadStats, error) {
	if len(cfgs) == 0 {
		return nil, trace.ReadStats{}, nil
	}
	// A private cancel wakes a producer that still has events but no
	// audience left (every consumer failed and closed); the ring's
	// ErrRingDrained covers most such exits, but a producer parked in its
	// own non-ring work needs the context signal too.
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ring := trace.NewRing(rctx, len(cfgs), trace.RingOptions{Batches: batches})

	prodCh := make(chan error, 1)
	go func() {
		err := func() (err error) {
			defer func() {
				if v := recover(); v != nil {
					err = fmt.Errorf("producer panic: %v", v)
				}
			}()
			return produce(ring)
		}()
		ring.CloseSend(err)
		prodCh <- err
	}()

	results := make([]*core.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = analyzeRingOne(ring, i, cfgs[i], results)
		}(i)
	}
	wg.Wait()
	cancel()
	perr := <-prodCh
	stats := ring.Stats()

	// Lowest-index consumer failure that is the consumer's own — echoes of
	// the producer's failure (RingProducerError) don't count, so a broken
	// simulation is reported once rather than len(cfgs) times.
	firstIdx, firstErr := -1, error(nil)
	for i, err := range errs {
		if err == nil {
			continue
		}
		var echo *trace.RingProducerError
		if errors.As(err, &echo) {
			continue
		}
		firstIdx, firstErr = i, err
		break
	}
	if perr != nil {
		if errors.Is(perr, trace.ErrRingDrained) {
			// Consumers left first; their errors explain why.
			perr = nil
		} else if ctx.Err() == nil && errors.Is(perr, context.Canceled) {
			// Our own post-consumer cancel, not the caller's.
			perr = nil
		}
	}
	switch {
	case firstErr != nil && ctx.Err() != nil:
		// Under the caller's cancellation/deadline every side fails; the
		// lowest-index configuration decides, matching FanOut.
		return nil, stats, fmt.Errorf("config %d: %w", firstIdx, firstErr)
	case perr != nil:
		return nil, stats, perr
	case firstErr != nil:
		return nil, stats, fmt.Errorf("config %d: %w", firstIdx, firstErr)
	}
	return results, stats, nil
}

// analyzeRingOne drains one ring consumer into one analyzer.
func analyzeRingOne(ring *trace.Ring, i int, cfg core.Config, results []*core.Result) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	c := ring.Consumer(i)
	defer c.Close()
	a := core.NewAnalyzer(cfg)
	for {
		batch, rerr := c.Next()
		if rerr != nil {
			if rerr == io.EOF {
				break
			}
			if errors.Is(rerr, context.DeadlineExceeded) {
				return fmt.Errorf("%w: %w", ErrWorkloadTimeout, rerr)
			}
			return rerr
		}
		if len(batch) == 0 {
			continue
		}
		// The analyzer is a trusted BatchSink: the slice aliases the ring
		// slot and is valid only until the next Next call.
		if aerr := a.Events(batch); aerr != nil {
			return aerr
		}
	}
	r, ferr := a.Finish()
	if ferr != nil {
		return ferr
	}
	results[i] = r
	return nil
}

// analyzeRing is AnalyzeMulti's bounded engine: the workload simulates
// into a ring under backpressure while every configuration analyzes
// concurrently. memBudget is this workload's effective budget (already
// folded with any Pool share); the ring may spend at most half of it, the
// analyzers' governed working sets get the rest. A budget too small for
// even a minimum ring falls back by policy: Degrade re-runs on the
// streaming engine and marks EngineDowngraded (the same downgrade the
// buffered engine takes when the recording outgrows the budget), FailFast
// returns a structured budget error, WarnOnly proceeds with the minimum
// ring.
func (s *Suite) analyzeRing(wctx context.Context, w *workloads.Workload, cfgs []core.Config, memBudget int64) ([]*core.Result, error) {
	batches := s.RingBatches
	if batches <= 0 {
		batches = trace.DefaultRingBatches
	}
	if memBudget > 0 {
		limit := memBudget / 2
		if fit := int(limit / trace.RingFootprint(1, 0)); fit < batches {
			batches = fit
		}
		if batches < trace.MinRingBatches {
			switch s.BudgetPolicy {
			case budget.Degrade:
				results, err := s.analyzeStreaming(wctx, w, cfgs)
				if err != nil {
					return nil, err
				}
				for _, r := range results {
					if r.Governor != nil {
						r.Governor.EngineDowngraded = true
					}
				}
				return results, nil
			case budget.FailFast:
				return nil, &budget.Error{
					Resource:   budget.EventBuffer,
					UsageBytes: trace.RingFootprint(trace.MinRingBatches, 0),
					LimitBytes: limit,
				}
			default: // WarnOnly: run anyway at the floor.
				batches = trace.MinRingBatches
			}
		}
	}
	produce := func(ring *trace.Ring) error {
		_, err := w.Run(s.Scale, s.options(), guardSink(wctx, ring), s.MaxInstr)
		return err
	}
	results, _, err := FanOutStream(wctx, produce, cfgs, batches)
	return results, err
}
