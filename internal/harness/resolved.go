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
		err := func() (err error) {
			defer func() {
				if v := recover(); v != nil {
					err = fmt.Errorf("producer panic: %v", v)
				}
			}()
			if perr := produce(rs); perr != nil {
				return perr
			}
			return rs.res.Flush()
		}()
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
			errs[i] = scheduleOne(ring, i, cfgs[i], results, &totals)
		}(i)
	}
	wg.Wait()
	cancel()
	perr := <-prodCh
	stats := ring.Stats()

	// Lowest-index scheduler failure that is the scheduler's own — echoes
	// of the producer's failure (RingProducerError) don't count, so a
	// broken simulation is reported once rather than len(cfgs) times.
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
			perr = nil // schedulers left first; their errors explain why
		} else if ctx.Err() == nil && errors.Is(perr, context.Canceled) {
			perr = nil // our own post-consumer cancel, not the caller's
		}
	}
	switch {
	case firstErr != nil && ctx.Err() != nil:
		// Under the caller's cancellation or deadline every side fails;
		// the lowest-index configuration decides.
		return nil, stats, fmt.Errorf("config %d: %w", firstIdx, firstErr)
	case perr != nil:
		return nil, stats, perr
	case firstErr != nil:
		return nil, stats, fmt.Errorf("config %d: %w", firstIdx, firstErr)
	}
	return results, stats, nil
}

// scheduleOne drains one ring consumer into one scheduler. It retains
// nothing from a segment after asking for the next one, which is what lets
// the resolver recycle displaced segments.
func scheduleOne(ring *trace.SegRing[*core.DepSegment], i int, cfg core.Config, results []*core.Result, totals *core.ResolveTotals) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
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
// would only time-slice against the resolver — while the inline walk keeps
// each segment cache-resident across all N Apply calls. A variable so the
// differential tests pin both topologies regardless of the host's core
// count.
var resolvedSerial = func() bool { return runtime.GOMAXPROCS(0) == 1 }

// errSchedulersDone aborts the producer once every scheduler has failed;
// the serial path's analogue of trace.ErrRingDrained.
var errSchedulersDone = errors.New("harness: every scheduler has failed")

// fanOutResolvedSerial is FanOutResolved without the ring. When the
// configs are gang-eligible (core.NewSchedulerGang), each emitted segment
// is replayed once for every config by a SchedulerGang and segment buffers
// are recycled — the fastest path by far, since the config-invariant
// record work is not repeated per config. Otherwise the resolver's emit
// callback copies each segment into a bounded batch of persistent buffers
// and a full batch is swept scheduler-major: each scheduler replays the
// whole batch before the next scheduler starts, so a scheduler's slot
// table and window stay cache-hot across depth segments while the record
// words stream through sequentially. Either way the run holds only the
// resolver's recycled pair plus at most depth buffered segments, matching
// the ring's depth*ResolveSegmentBytes budget with zero per-segment
// garbage. Error semantics mirror the ring path: a failed scheduler stops
// receiving segments while the rest continue (a gang failure fails every
// config at once, exactly as a corrupt record would on the ring), and the
// lowest-index failure decides the reported error.
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

	gang := core.NewSchedulerGang(scheds)
	var batch []core.DepSegment
	nbatch := 0
	sweep := func() error {
		for i := range scheds {
			if scheds[i] == nil {
				continue
			}
			for j := 0; j < nbatch; j++ {
				if aerr := applySegment(scheds[i], &batch[j]); aerr != nil {
					errs[i] = aerr
					scheds[i] = nil
					live--
					break
				}
			}
		}
		nbatch = 0
		if live == 0 {
			return errSchedulersDone
		}
		return nil
	}
	var emit func(*core.DepSegment) error
	if gang != nil {
		emit = func(seg *core.DepSegment) error {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			if aerr := gang.Apply(seg); aerr != nil {
				for i := range scheds {
					errs[i] = aerr
					scheds[i] = nil
				}
				live = 0
				return errSchedulersDone
			}
			rs.res.Reuse(seg)
			return nil
		}
	} else {
		batch = make([]core.DepSegment, depth)
		emit = func(seg *core.DepSegment) error {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			b := &batch[nbatch]
			b.Events = seg.Events
			b.NewLocs = append(b.NewLocs[:0], seg.NewLocs...)
			b.Code = append(b.Code[:0], seg.Code...)
			rs.res.Reuse(seg)
			nbatch++
			if nbatch == len(batch) {
				return sweep()
			}
			return nil
		}
	}
	rs.res = core.NewResolver(cfgs[0], emit)

	perr := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("producer panic: %v", v)
			}
		}()
		if perr := produce(rs); perr != nil {
			return perr
		}
		return rs.res.Flush()
	}()
	if errors.Is(perr, errSchedulersDone) {
		perr = nil // the schedulers' own errors explain the early stop
	}
	if perr == nil && gang == nil {
		if serr := sweep(); serr != nil && !errors.Is(serr, errSchedulersDone) {
			perr = serr
		}
	}
	if perr == nil {
		if gang != nil && live > 0 {
			gang.Seal()
		}
		totals := rs.res.Totals()
		for i := range scheds {
			if scheds[i] == nil {
				continue
			}
			if r, ferr := finishScheduler(scheds[i], totals); ferr != nil {
				errs[i] = ferr
			} else {
				results[i] = r
			}
		}
	}

	firstIdx, firstErr := -1, error(nil)
	for i, err := range errs {
		if err != nil {
			firstIdx, firstErr = i, err
			break
		}
	}
	switch {
	case firstErr != nil && ctx.Err() != nil:
		return nil, rs.st, fmt.Errorf("config %d: %w", firstIdx, firstErr)
	case perr != nil:
		if errors.Is(perr, context.DeadlineExceeded) && !errors.Is(perr, ErrWorkloadTimeout) {
			perr = fmt.Errorf("%w: %w", ErrWorkloadTimeout, perr)
		}
		return nil, rs.st, perr
	case firstErr != nil:
		return nil, rs.st, fmt.Errorf("config %d: %w", firstIdx, firstErr)
	}
	return results, rs.st, nil
}

// applySegment applies one segment with the same panic containment a
// scheduler goroutine gets on the ring path.
func applySegment(s *core.Scheduler, seg *core.DepSegment) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return s.Apply(seg)
}

// finishScheduler finalizes one scheduler with panic containment.
func finishScheduler(s *core.Scheduler, totals core.ResolveTotals) (r *core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return s.Finish(totals)
}

// analyzeResolved is AnalyzeMulti's multi-configuration engine: the
// workload is simulated once, its dependences resolved once, and the
// record segments scheduled under every config. Scheduling runs inline
// when the suite's Concurrency is 1 or the runtime has one CPU, and on one
// goroutine per config otherwise. memBudget is this workload's effective
// budget (already folded with any Pool share): the segment ring may spend
// at most half of it, the schedulers' governed working sets get the rest,
// and a budget too small for even a trace.MinSegRingDepth ring falls back
// by policy — Degrade re-runs on the streaming engine and marks
// EngineDowngraded, FailFast returns a structured budget error, WarnOnly
// proceeds at the floor.
func (s *Suite) analyzeResolved(wctx context.Context, w *workloads.Workload, cfgs []core.Config, memBudget int64) ([]*core.Result, error) {
	depth := trace.DefaultSegRingDepth
	if memBudget > 0 {
		limit := memBudget / 2
		if fit := int(limit / core.ResolveSegmentBytes); fit < depth {
			depth = fit
		}
		if depth < trace.MinSegRingDepth {
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
					UsageBytes: int64(trace.MinSegRingDepth) * core.ResolveSegmentBytes,
					LimitBytes: limit,
				}
			default: // WarnOnly: run anyway at the floor.
				depth = trace.MinSegRingDepth
			}
		}
	}
	produce := func(rs *ResolverStream) error {
		_, err := w.Run(s.Scale, s.options(), guardSink(wctx, rs), s.MaxInstr)
		return err
	}
	results, _, err := fanOutResolved(wctx, produce, cfgs, depth, s.Concurrency == 1 || resolvedSerial())
	return results, err
}
