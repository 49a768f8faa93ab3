package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"paragraph/internal/core"
	"paragraph/internal/trace"
)

// Speculative sharding: the chained driver (AnalyzePlan) overlaps decode
// with analysis, but analysis of shard i+1 still waits on shard i's exit
// live-well, so the analyzer remains the wall. The speculative driver
// breaks the chain: every shard is compiled concurrently — with no entry
// state at all — into a relocatable core.ShardDelta by a shard resolution
// (core.NewDeltaResolver: validation, location-to-slot resolution, record
// encoding), and a cheap sequential fix-up pass splices the deltas in
// shard order onto one analyzer per config (core.Analyzer.ApplyDelta). The
// records are policy-free, so one delta per shard serves every config. The
// splice is exact, so results are deep-equal to the chained and monolithic
// runs — the differential battery in speculate_test.go and
// internal/harness enforces it on clean, damaged and budget-governed
// traces.

// BuildShardDelta runs the speculative pass over one decoded shard. The
// records are policy-free, so cfg is unused: any config splices the
// result. On a validation failure the returned delta is non-nil and covers
// the events before the bad one; callers splice that prefix before
// reporting the error so failures surface in chained order (an earlier
// shard's budget error must win over a later shard's bad event, and within
// one shard a governor trip before the bad event must win too).
func BuildShardDelta(ctx context.Context, buf *trace.EventBuffer, cfg core.Config, sh Shard) (*core.ShardDelta, error) {
	r := core.NewDeltaResolver(sh.StartEvent, buf.Len())
	if err := buf.ReplayBatches(ctx, r); err != nil {
		return r.Delta(), fmt.Errorf("shard %d: %w", sh.Index, err)
	}
	return r.Delta(), nil
}

// BuildDeltaBytes is one speculative shard attempt straight from the
// trace bytes: the shard's events stream into a shard resolution as they
// decode, with no EventBuffer in between, and come back as the portable
// Delta that pgshard and pgserved persist. On any failure it returns no
// Delta: unlike BuildShardDelta's callers, no caller of a single attempt
// splices a prefix.
func BuildDeltaBytes(ctx context.Context, data []byte, cfg core.Config, sh Shard, degraded bool, total int) (*Delta, error) {
	r := core.NewDeltaResolver(sh.StartEvent, int(sh.Events))
	rs, err := streamShard(ctx, data, sh, degraded, r)
	if err != nil {
		return nil, err
	}
	return &Delta{Index: sh.Index, Shards: total, Config: cfg, ReadStats: rs, D: r.Delta()}, nil
}

// RunShardDelta is RunShard for a speculatively built shard: it splices the
// delta onto an analyzer carrying the state of all preceding shards and
// harvests the same per-shard Result a chained run produces — so persisted
// results, resume, and Merge are oblivious to which driver ran the shard.
func RunShardDelta(a *core.Analyzer, d *core.ShardDelta, cfg core.Config, rs trace.ReadStats, index, total int, wantCheckpoint bool) (*Result, *core.Checkpoint, error) {
	res := &Result{
		Index:      index,
		Shards:     total,
		Config:     cfg,
		StartEvent: d.StartEvent,
		Events:     d.Events,
		ReadStats:  rs,
	}
	return runShard(a, res, wantCheckpoint, func() error {
		if err := a.ApplyDelta(d); err != nil {
			return fmt.Errorf("shard %d: %w", index, err)
		}
		return nil
	})
}

// analyzePlanSpeculative is the parallel in-process driver behind
// Options.Speculate: shard byte ranges decode in one bounded pool, each
// shard's speculative build runs in a second bounded pool as soon as the
// shard is decoded, and one sequential splice chain per config consumes
// the deltas in shard order. Every chain splices the same delta, which is
// freed once the last chain has spliced it. The only serial work left per
// config is the fix-up pass, so shards genuinely analyze concurrently.
func analyzePlanSpeculative(ctx context.Context, data []byte, cfgs []core.Config, plan *Plan, workers int) ([]*core.Result, trace.ReadStats, error) {
	ns := len(plan.Shards)
	bufs, decErrs, ready := startDecode(ctx, data, plan, workers)

	// Build stage, in shard order so every chain can start splicing
	// shard 0 while later shards still build.
	deltas := make([]*core.ShardDelta, ns)
	buildErrs := make([]error, ns)
	built := make([]chan struct{}, ns)
	// pending[si] counts the chains still to splice shard si.
	pending := make([]atomic.Int32, ns)
	for si := range built {
		built[si] = make(chan struct{})
		pending[si].Store(int32(len(cfgs)))
	}
	buildSem := make(chan struct{}, workers)
	go func() {
		for si := range plan.Shards {
			<-ready[si]
			if decErrs[si] != nil {
				close(built[si])
				continue
			}
			buildSem <- struct{}{}
			go func(si int) {
				defer func() { <-buildSem; close(built[si]) }()
				deltas[si], buildErrs[si] = BuildShardDelta(ctx, bufs[si], cfgs[0], plan.Shards[si])
			}(si)
		}
	}()

	// Splice stage: one sequential fix-up chain per config (the chains
	// themselves run in parallel, bounded separately from the pools above —
	// sharing one semaphore could deadlock the pipeline).
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
				<-built[si]
				if decErrs[si] != nil {
					errs[ci] = fmt.Errorf("config %d: %w", ci, decErrs[si])
					return
				}
				d, berr := deltas[si], buildErrs[si]
				if berr != nil {
					// Splice the prefix before reporting: if the chained
					// run would have tripped the governor before reaching
					// the bad event, that error must win here too.
					if d != nil && d.Events > 0 {
						if aerr := spliceOnly(a, d, si); aerr != nil {
							errs[ci] = fmt.Errorf("config %d: %w", ci, aerr)
							return
						}
					}
					errs[ci] = fmt.Errorf("config %d: %w", ci, berr)
					return
				}
				part, _, err := RunShardDelta(a, d, cfgs[ci], bufs[si].Stats(), si, ns, false)
				if pending[si].Add(-1) == 0 {
					deltas[si] = nil // every chain has spliced it
				}
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

// spliceOnly applies a prefix delta (from a failed build) without
// harvesting a Result.
func spliceOnly(a *core.Analyzer, d *core.ShardDelta, index int) error {
	if err := a.BeginShard(); err != nil {
		return fmt.Errorf("shard %d: %w", index, err)
	}
	if err := a.ApplyDelta(d); err != nil {
		return fmt.Errorf("shard %d: %w", index, err)
	}
	return nil
}

// Delta is one shard's speculative contribution in portable form: the chain
// metadata and read accounting a Result would carry, plus the relocatable
// record stream instead of finished statistics. pgshard analyze -speculate
// writes one per shard — built with no predecessor, so all shards can run
// concurrently across processes — and pgshard merge splices them.
type Delta struct {
	// Index and Shards place the delta in its plan.
	Index  int
	Shards int
	// Config is the full analysis configuration (the delta itself is
	// policy-free); the merger reconstructs the analyzer from it.
	Config core.Config
	// ReadStats is the shard's decode accounting.
	ReadStats trace.ReadStats
	// D is the relocatable shard delta.
	D *core.ShardDelta
}

// Splice validates a complete chain of speculative shard deltas and runs
// the sequential fix-up, returning the same per-shard Results a chained run
// produces plus the merged whole-trace Result and summed ReadStats.
func Splice(deltas []*Delta) ([]*Result, *core.Result, trace.ReadStats, error) {
	if len(deltas) == 0 {
		return nil, nil, trace.ReadStats{}, errors.New("shard: no deltas to splice")
	}
	sorted := append([]*Delta(nil), deltas...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	n := sorted[0].Shards
	if len(sorted) != n {
		return nil, nil, trace.ReadStats{}, fmt.Errorf("shard: have %d deltas of a %d-shard plan", len(sorted), n)
	}
	var nextEvent uint64
	for i, d := range sorted {
		if d.Index != i {
			return nil, nil, trace.ReadStats{}, fmt.Errorf("shard: deltas are not shards 0..%d (missing or duplicate index %d)", n-1, d.Index)
		}
		if d.Shards != n {
			return nil, nil, trace.ReadStats{}, fmt.Errorf("shard %d: from a %d-shard plan, others from %d", i, d.Shards, n)
		}
		if !reflect.DeepEqual(d.Config, sorted[0].Config) {
			return nil, nil, trace.ReadStats{}, fmt.Errorf("shard %d: config differs from shard 0's", i)
		}
		if d.D == nil {
			return nil, nil, trace.ReadStats{}, fmt.Errorf("shard %d: delta carries no record stream", i)
		}
		if d.D.StartEvent != nextEvent {
			return nil, nil, trace.ReadStats{}, fmt.Errorf("shard %d: starts at event %d, chain is at %d", i, d.D.StartEvent, nextEvent)
		}
		nextEvent += d.D.Events
	}
	a := core.NewAnalyzer(sorted[0].Config)
	parts := make([]*Result, n)
	for i, d := range sorted {
		part, _, err := RunShardDelta(a, d.D, d.Config, d.ReadStats, i, n, false)
		if err != nil {
			return nil, nil, trace.ReadStats{}, err
		}
		parts[i] = part
	}
	res, rs, err := Merge(parts)
	if err != nil {
		return nil, nil, trace.ReadStats{}, err
	}
	return parts, res, rs, nil
}
