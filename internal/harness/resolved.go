package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// ResolverStream is the producer's view of a resolved fan-out: a trace.Sink
// and trace.BatchSink whose events run through one core.Resolver and emerge
// as dependence-record segments delivered to every scheduler — broadcast
// through a bounded trace.SegRing when schedulers run on their own
// goroutines, or applied inline on this goroutine (see fanOutResolvedSerial).
// The producer writes events exactly as it would into a trace.Ring; with a
// ring, backpressure applies when the slowest scheduler falls a full ring
// of segments behind.
type ResolverStream struct {
	res  *core.Resolver
	ring *trace.SegRing[*core.DepSegment] // nil on the serial path
	st   trace.ReadStats                  // serial path's stats, set via SetStats
}

// Event implements trace.Sink.
func (rs *ResolverStream) Event(e *trace.Event) error { return rs.res.Event(e) }

// Events implements trace.BatchSink.
func (rs *ResolverStream) Events(batch []trace.Event) error { return rs.res.Events(batch) }

// SetStats attaches the producing reader's skip accounting, mirroring
// trace.Ring.SetStats.
func (rs *ResolverStream) SetStats(st trace.ReadStats) {
	if rs.ring != nil {
		rs.ring.SetStats(st)
		return
	}
	rs.st = st
}

// drive runs produce into the stream and flushes the resolver's last
// segment, returning a panic in either as an error.
func (rs *ResolverStream) drive(produce func(*ResolverStream) error) error {
	return contain("producer panic", func() error {
		if err := produce(rs); err != nil {
			return err
		}
		return rs.res.Flush()
	})
}

// FanOutResolved analyzes one event stream under every configuration by
// resolving dependencies once and scheduling per config: produce feeds
// events into a ResolverStream, whose resolver compiles them into compact
// record segments, and one core.Scheduler per configuration replays them.
// The expensive half of analysis — validation, live-well hashing, slot
// resolution — happens once for the whole call instead of once per config;
// each scheduler replays records with array indexing only. The records are
// policy-free, so any mix of configurations — syscall policies and renaming
// switches included — shares the one resolution.
//
// On a multi-CPU runtime segments broadcast through a bounded
// trace.SegRing to one scheduler goroutine per configuration, and the
// resolver recycles each segment the ring displaces, so the run holds
// depth+1 segment buffers whatever the trace length; on a single CPU the
// schedulers run inline (see fanOutResolvedSerial). depth bounds producer
// run-ahead in segments (0 selects trace.DefaultSegRingDepth). The
// lowest-index failing configuration decides the error (prefixed
// "config %d:"), a deadline expiry surfaces as ErrWorkloadTimeout, panics
// are contained, and a producer failure — which includes event validation,
// since the resolver validates for every config — is reported once, as
// itself, not once per configuration. All goroutines drain before
// FanOutResolved returns.
func FanOutResolved(ctx context.Context, produce func(*ResolverStream) error, cfgs []core.Config, depth int) ([]*core.Result, trace.ReadStats, error) {
	return fanOutResolved(ctx, produce, cfgs, depth, resolvedSerial())
}

// fanOutResolved is FanOutResolved with the topology chosen by the caller.
func fanOutResolved(ctx context.Context, produce func(*ResolverStream) error, cfgs []core.Config, depth int, serial bool) ([]*core.Result, trace.ReadStats, error) {
	if len(cfgs) == 0 {
		return nil, trace.ReadStats{}, nil
	}
	if serial {
		return fanOutResolvedSerial(ctx, produce, cfgs, depth)
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ring := trace.NewSegRing[*core.DepSegment](rctx, len(cfgs), depth)
	rs := &ResolverStream{ring: ring}
	rs.res = core.NewResolver(cfgs[0], func(seg *core.DepSegment) error {
		old, err := ring.Send(seg)
		if old != nil {
			// Every scheduler has moved past the displaced segment.
			rs.res.Reuse(old)
		}
		return err
	})

	// totals is written by the producer goroutine before CloseSend and read
	// by schedulers only after they observe EOF; the ring's mutex orders
	// the two, so the plain field is race-free.
	var totals core.ResolveTotals
	prodCh := make(chan error, 1)
	go func() {
		err := rs.drive(produce)
		if err == nil {
			totals = rs.res.Totals()
		}
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
			errs[i] = contain("panic", func() error { return scheduleOne(ring, i, cfgs[i], results, &totals) })
		}(i)
	}
	wg.Wait()
	cancel()
	perr := <-prodCh
	stats := ring.Stats()

	if errors.Is(perr, trace.ErrRingDrained) || (ctx.Err() == nil && errors.Is(perr, context.Canceled)) {
		// The schedulers left first and their errors explain why, or
		// this is our own post-consumer cancel, not the caller's.
		perr = nil
	}
	if err := fanOutError(ctx, perr, errs); err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

// fanOutError picks the error a fan-out reports from its producer's and
// its schedulers' errors. Under the caller's cancellation or deadline every
// side fails, and the lowest-index configuration decides; otherwise a
// producer failure is reported once, as itself, ahead of the
// configurations, whose echoes of it (RingProducerError) never count.
func fanOutError(ctx context.Context, perr error, errs []error) error {
	for i, err := range errs {
		var echo *trace.RingProducerError
		if err == nil || errors.As(err, &echo) {
			continue
		}
		if perr == nil || ctx.Err() != nil {
			return fmt.Errorf("config %d: %w", i, err)
		}
		break
	}
	return perr
}

// contain runs fn, returning a panic in it as an error prefixed by what.
func contain(what string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%s: %v", what, v)
		}
	}()
	return fn()
}

// scheduleOne drains one ring consumer into one scheduler. It retains
// nothing from a segment after asking for the next one, which is what lets
// the resolver recycle displaced segments.
func scheduleOne(ring *trace.SegRing[*core.DepSegment], i int, cfg core.Config, results []*core.Result, totals *core.ResolveTotals) error {
	c := ring.Consumer(i)
	defer c.Close()
	sched := core.NewScheduler(cfg)
	for {
		seg, rerr := c.Next()
		if rerr != nil {
			if rerr == io.EOF {
				break
			}
			if errors.Is(rerr, context.DeadlineExceeded) {
				return fmt.Errorf("%w: %w", ErrWorkloadTimeout, rerr)
			}
			return rerr
		}
		if aerr := sched.Apply(seg); aerr != nil {
			return aerr
		}
	}
	r, ferr := sched.Finish(*totals)
	if ferr != nil {
		return ferr
	}
	results[i] = r
	return nil
}

// resolvedSerial reports whether FanOutResolved should schedule inline on
// the producer's goroutine instead of broadcasting segments through a
// SegRing. On a single-CPU runtime the ring buys no overlap — schedulers
// would only time-slice against the resolver — while the inline sweep keeps
// each scheduler's tables cache-hot across a batch of segments. A variable
// so the differential tests pin both topologies regardless of the host's
// core count.
var resolvedSerial = func() bool { return runtime.GOMAXPROCS(0) == 1 }

// errSchedulersDone aborts the producer once every scheduler has failed;
// the serial path's analogue of trace.ErrRingDrained.
var errSchedulersDone = errors.New("harness: every scheduler has failed")

// fanOutResolvedSerial is FanOutResolved without the ring. The resolver's
// emit callback holds each segment in a bounded batch; a full batch is
// swept scheduler-major: each scheduler replays the whole batch before the
// next scheduler starts, so a scheduler's slot table and window stay
// cache-hot across depth segments while the record words stream through
// sequentially. Refilling a batch slot hands its swept segment back to the
// resolver, as the ring path recycles displaced segments, so the run holds
// depth+1 segment buffers whatever the trace length, the ring's
// footprint. Error semantics mirror the ring path: a failed scheduler
// stops receiving segments while the rest continue, and the lowest-index
// failure decides the reported error.
func fanOutResolvedSerial(ctx context.Context, produce func(*ResolverStream) error, cfgs []core.Config, depth int) ([]*core.Result, trace.ReadStats, error) {
	if depth <= 0 {
		depth = trace.DefaultSegRingDepth
	}
	if depth < trace.MinSegRingDepth {
		depth = trace.MinSegRingDepth
	}
	scheds := make([]*core.Scheduler, len(cfgs))
	for i := range cfgs {
		scheds[i] = core.NewScheduler(cfgs[i])
	}
	rs := &ResolverStream{}
	results := make([]*core.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	live := len(cfgs)

	batch := make([]*core.DepSegment, depth)
	nbatch := 0
	sweep := func() {
		for i := range scheds {
			if scheds[i] == nil {
				continue
			}
			for j := 0; j < nbatch; j++ {
				if aerr := contain("panic", func() error { return scheds[i].Apply(batch[j]) }); aerr != nil {
					errs[i] = aerr
					scheds[i] = nil
					live--
					break
				}
			}
		}
		nbatch = 0
	}
	rs.res = core.NewResolver(cfgs[0], func(seg *core.DepSegment) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if swept := batch[nbatch]; swept != nil {
			rs.res.Reuse(swept)
		}
		batch[nbatch] = seg
		nbatch++
		if nbatch == len(batch) {
			sweep()
			if live == 0 {
				return errSchedulersDone
			}
		}
		return nil
	})

	perr := rs.drive(produce)
	if errors.Is(perr, errSchedulersDone) {
		perr = nil // the schedulers' own errors explain the early stop
	}
	if perr == nil {
		sweep() // the last, partial batch
		totals := rs.res.Totals()
		for i := range scheds {
			if scheds[i] == nil {
				continue
			}
			errs[i] = contain("panic", func() (err error) {
				results[i], err = scheds[i].Finish(totals)
				return err
			})
		}
	}

	if errors.Is(perr, context.DeadlineExceeded) && !errors.Is(perr, ErrWorkloadTimeout) {
		perr = fmt.Errorf("%w: %w", ErrWorkloadTimeout, perr)
	}
	if err := fanOutError(ctx, perr, errs); err != nil {
		return nil, rs.st, err
	}
	return results, rs.st, nil
}

// analyzeResolved is AnalyzeMulti's multi-configuration engine: the
// workload is simulated once, its dependences resolved once, and the
// record segments scheduled under every config. Scheduling runs inline
// when the suite's Concurrency is 1 or the runtime has one CPU, and on one
// goroutine per config otherwise. The segment ring gets at most half the
// effective budget, and the schedulers' governed working sets split what a
// budget.Pool share has left (see budgeted), so the whole workload commits
// no more than its share. A ring limit too small for even a
// trace.MinSegRingDepth ring falls back by policy — Degrade re-runs on the
// streaming engine and marks EngineDowngraded, FailFast returns a
// structured budget error, WarnOnly proceeds at the floor.
func (s *Suite) analyzeResolved(wctx context.Context, w *workloads.Workload, cfgs []core.Config) ([]*core.Result, *workloads.RunResult, error) {
	depth := trace.DefaultSegRingDepth
	if b := s.effectiveMemBudget(wctx); b > 0 {
		limit := b / 2
		depth = min(depth, int(limit/core.ResolveSegmentBytes))
		if depth < trace.MinSegRingDepth {
			switch s.BudgetPolicy {
			case budget.Degrade:
				results, run, err := s.analyzeStreaming(wctx, w, s.budgeted(wctx, cfgs, 0))
				for _, r := range results {
					if r.Governor != nil {
						r.Governor.EngineDowngraded = true
					}
				}
				return results, run, err
			case budget.FailFast:
				return nil, nil, &budget.Error{
					Resource:   budget.SegmentRing,
					UsageBytes: int64(trace.MinSegRingDepth) * core.ResolveSegmentBytes,
					LimitBytes: limit,
				}
			default: // WarnOnly: run anyway at the floor.
				depth = trace.MinSegRingDepth
			}
		}
	}
	cfgs = s.budgeted(wctx, cfgs, int64(depth)*core.ResolveSegmentBytes)
	var run *workloads.RunResult
	produce := func(rs *ResolverStream) (err error) {
		run, err = w.Run(s.Scale, s.options(), guardSink(wctx, rs), s.MaxInstr)
		return err
	}
	results, _, err := fanOutResolved(wctx, produce, cfgs, depth, s.Concurrency == 1 || resolvedSerial())
	return results, run, err
}
