package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"paragraph/internal/core"
	"paragraph/internal/trace"
)

// streamShard decodes one shard's byte range straight into sink, batch by
// batch, and returns the shard reader's ReadStats. It checks ctx once per
// batch, and the plan's event count as soon as the range delivers more
// events than the plan says and again at the end. Events reach sink in
// trace order up to the first failure, so sink has consumed every event
// before a decode error, as in a monolithic streaming run.
func streamShard(ctx context.Context, data []byte, sh Shard, degraded bool, sink trace.BatchSink) (trace.ReadStats, error) {
	// Zero-copy section reader: chunks are CRC-verified and decoded in
	// place out of data, with no per-shard copy of the byte range.
	r, err := trace.NewBytesSectionReader(data, sh.Start, sh.End, trace.ReaderOptions{
		Degraded:      degraded,
		StartSeq:      sh.PrevSeq,
		StartSeqValid: sh.HavePrevSeq,
	})
	if err != nil {
		return trace.ReadStats{}, fmt.Errorf("shard %d: %w", sh.Index, err)
	}
	countErr := func(got uint64) error {
		return fmt.Errorf("shard %d: decoded %d events, plan says %d (trace modified since Split?)",
			sh.Index, got, sh.Events)
	}
	done := ctx.Done()
	batch := make([]trace.Event, trace.DefaultBatchEvents)
	var got uint64
	for {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return trace.ReadStats{}, fmt.Errorf("shard %d: decode canceled at event %d: %w", sh.Index, got, err)
			}
		}
		n, rerr := r.ReadBatch(batch)
		if n > 0 {
			if got+uint64(n) > sh.Events {
				return trace.ReadStats{}, countErr(got + uint64(n))
			}
			if err := sink.Events(batch[:n]); err != nil {
				return trace.ReadStats{}, fmt.Errorf("shard %d: event batch at %d: %w", sh.Index, got, err)
			}
			got += uint64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return trace.ReadStats{}, fmt.Errorf("shard %d: %w", sh.Index, rerr)
		}
	}
	if got != sh.Events {
		return trace.ReadStats{}, countErr(got)
	}
	return r.Stats(), nil
}

// DecodeShard decodes one shard's byte range into an EventBuffer, carrying
// the shard reader's ReadStats. The buffer can be replayed by any number of
// analyzers (different configs fan out over one decode), which is what the
// in-process driver needs; a single-config attempt streams instead (see
// RunShardBytes and BuildDeltaBytes). Decode honors ctx with the usual
// CtxCheckEvery granularity.
func DecodeShard(ctx context.Context, data []byte, sh Shard, degraded bool) (*trace.EventBuffer, error) {
	buf := &trace.EventBuffer{}
	buf.Grow(int(sh.Events)) // the plan counted this shard's events at Split time
	rs, err := streamShard(ctx, data, sh, degraded, buf)
	if err != nil {
		return nil, err
	}
	buf.SetStats(rs)
	return buf, nil
}

// RunShard replays one decoded shard through an analyzer that carries the
// state of all preceding shards (a fresh analyzer for shard 0, a
// checkpoint-restored one otherwise). It resets the mergeable accumulators
// at entry and harvests them after the replay, finishing the analysis on
// the last shard. When wantCheckpoint is set, the analyzer's outgoing state
// is snapshotted (before any finish) for handoff to the next shard's
// process.
func RunShard(ctx context.Context, a *core.Analyzer, buf *trace.EventBuffer, cfg core.Config, sh Shard, total int, wantCheckpoint bool) (*Result, *core.Checkpoint, error) {
	res := &Result{
		Index:      sh.Index,
		Shards:     total,
		Config:     cfg,
		StartEvent: sh.StartEvent,
		Events:     uint64(buf.Len()),
		ReadStats:  buf.Stats(),
	}
	return runShard(a, res, wantCheckpoint, func() error {
		if err := buf.ReplayBatches(ctx, a); err != nil {
			return fmt.Errorf("shard %d: %w", sh.Index, err)
		}
		return nil
	})
}

// RunShardBytes is one chained shard attempt straight from the trace bytes:
// RunShard over what DecodeShard would record, without the recording. The
// shard's events stream into a as they decode, so the attempt's memory
// does not grow with the shard. On any failure — including an event count
// that disagrees with the plan, found only after a has consumed the
// shard — it returns neither a Result nor a checkpoint, and a holds a
// partial shard: a retry must start from a fresh or restored analyzer.
func RunShardBytes(ctx context.Context, a *core.Analyzer, data []byte, cfg core.Config, sh Shard, degraded bool, total int, wantCheckpoint bool) (*Result, *core.Checkpoint, error) {
	res := &Result{
		Index:      sh.Index,
		Shards:     total,
		Config:     cfg,
		StartEvent: sh.StartEvent,
		Events:     sh.Events,
	}
	return runShard(a, res, wantCheckpoint, func() (err error) {
		res.ReadStats, err = streamShard(ctx, data, sh, degraded, a)
		return err
	})
}

// runShard is the harvest shared by every way of running a shard: reset
// a's mergeable accumulators, apply the shard's events (apply), snapshot
// the outgoing state if wanted, finish the analysis on the last shard, and
// fill res's statistics.
func runShard(a *core.Analyzer, res *Result, wantCheckpoint bool, apply func() error) (*Result, *core.Checkpoint, error) {
	if err := a.BeginShard(); err != nil {
		return nil, nil, fmt.Errorf("shard %d: %w", res.Index, err)
	}
	if err := apply(); err != nil {
		return nil, nil, err
	}
	var cp *core.Checkpoint
	if wantCheckpoint {
		cp = a.Snapshot()
	}
	if res.Index == res.Shards-1 {
		fin, err := a.Finish()
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", res.Index, err)
		}
		res.Final = fin
	}
	// Harvest after Finish so the last shard's stats include end-of-trace
	// retirements (still-live values folded into lifetime/sharing).
	res.Stats = a.ShardStats()
	return res, cp, nil
}

// Analyze splits the trace into n shards and analyzes it under one config,
// returning the merged Result and the summed ReadStats — deep-equal to
// what a monolithic core.AnalyzeTraceOpts run over the same bytes returns.
func Analyze(ctx context.Context, data []byte, cfg core.Config, n int, opts Options) (*core.Result, trace.ReadStats, error) {
	results, rs, err := AnalyzeMulti(ctx, data, []core.Config{cfg}, n, opts)
	if err != nil {
		return nil, trace.ReadStats{}, err
	}
	return results[0], rs, nil
}

// AnalyzeMulti is the pipelined in-process shard driver: the trace is split
// once, each shard's byte range is decoded and validated by a bounded
// worker pool, and one analysis chain per config walks the shards in order,
// handing analyzer state from shard to shard. Decode of shard i+1 overlaps
// analysis of shard i, and every config's chain replays the same decoded
// buffers (single-decode fan-out). Errors are reported deterministically:
// the failing config with the lowest index wins.
func AnalyzeMulti(ctx context.Context, data []byte, cfgs []core.Config, n int, opts Options) ([]*core.Result, trace.ReadStats, error) {
	if len(cfgs) == 0 {
		return nil, trace.ReadStats{}, errors.New("shard: no configs to analyze")
	}
	plan, err := Split(data, n, opts)
	if err != nil {
		return nil, trace.ReadStats{}, err
	}
	return AnalyzePlan(ctx, data, cfgs, plan, opts)
}

// AnalyzePlan runs AnalyzeMulti's decode and analysis stages over an
// existing plan (for callers that persist plans, like the pgshard CLI).
func AnalyzePlan(ctx context.Context, data []byte, cfgs []core.Config, plan *Plan, opts Options) ([]*core.Result, trace.ReadStats, error) {
	if plan.TraceBytes != int64(len(data)) {
		return nil, trace.ReadStats{}, fmt.Errorf("shard: plan is for a %d-byte trace, have %d bytes", plan.TraceBytes, len(data))
	}
	workers := opts.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Speculate {
		return analyzePlanSpeculative(ctx, data, cfgs, plan, workers)
	}
	ns := len(plan.Shards)

	bufs, decErrs, ready := startDecode(ctx, data, plan, workers)

	// Analysis stage: one serial checkpoint-handoff chain per config, the
	// chains themselves running in parallel (bounded separately from the
	// decode pool — sharing one semaphore could deadlock the pipeline).
	results := make([]*core.Result, len(cfgs))
	readStats := make([]trace.ReadStats, len(cfgs))
	errs := make([]error, len(cfgs))
	anSem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for ci := range cfgs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			anSem <- struct{}{}
			defer func() { <-anSem }()
			a := core.NewAnalyzer(cfgs[ci])
			parts := make([]*Result, ns)
			for si := range plan.Shards {
				<-ready[si]
				if decErrs[si] != nil {
					errs[ci] = fmt.Errorf("config %d: %w", ci, decErrs[si])
					return
				}
				part, _, err := RunShard(ctx, a, bufs[si], cfgs[ci], plan.Shards[si], ns, false)
				if err != nil {
					errs[ci] = fmt.Errorf("config %d: %w", ci, err)
					return
				}
				parts[si] = part
			}
			res, rs, err := Merge(parts)
			if err != nil {
				errs[ci] = fmt.Errorf("config %d: %w", ci, err)
				return
			}
			results[ci], readStats[ci] = res, rs
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, trace.ReadStats{}, err
		}
	}
	return results, readStats[0], nil
}

// startDecode launches the decode stage shared by the chained and
// speculative drivers: a bounded pool fills shard buffers; each buffer's
// ready channel closes when it is decoded, so downstream stages start on
// shard i while shard i+1 is still decoding.
func startDecode(ctx context.Context, data []byte, plan *Plan, workers int) (bufs []*trace.EventBuffer, decErrs []error, ready []chan struct{}) {
	ns := len(plan.Shards)
	bufs = make([]*trace.EventBuffer, ns)
	decErrs = make([]error, ns)
	ready = make([]chan struct{}, ns)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	decSem := make(chan struct{}, workers)
	go func() {
		for i := range plan.Shards {
			decSem <- struct{}{}
			go func(i int) {
				defer func() { <-decSem; close(ready[i]) }()
				bufs[i], decErrs[i] = DecodeShard(ctx, data, plan.Shards[i], plan.Degraded)
			}(i)
		}
	}()
	return bufs, decErrs, ready
}
