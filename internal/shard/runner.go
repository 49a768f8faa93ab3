package shard

import (
	"context"
	"fmt"
	"io"

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
// the shard reader's ReadStats. Only perfbench's ladder records shards, to
// time decode apart from analysis; analysis attempts stream (RunShardBytes,
// BuildDeltaBytes). Decode honors ctx with the usual CtxCheckEvery
// granularity.
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
// process. Only perfbench's ladder replays DecodeShard buffers.
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
// It runs the attempts pgshard and pgserved run: chained, each shard
// streams through RunShardBytes into one analyzer; with opts.Speculate,
// see spliceShards. No shard is recorded, so beyond data itself memory
// does not grow with the trace.
func Analyze(ctx context.Context, data []byte, cfg core.Config, n int, opts Options) (*core.Result, trace.ReadStats, error) {
	plan, err := Split(data, n, opts)
	if err != nil {
		return nil, trace.ReadStats{}, err
	}
	a := core.NewAnalyzer(cfg)
	parts := make([]*Result, len(plan.Shards))
	if opts.Speculate {
		err = spliceShards(ctx, a, data, cfg, plan, opts.Concurrency, parts)
	} else {
		for i, sh := range plan.Shards {
			if parts[i], _, err = RunShardBytes(ctx, a, data, cfg, sh, plan.Degraded, len(parts), false); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, trace.ReadStats{}, err
	}
	return Merge(parts)
}
