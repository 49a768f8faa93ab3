package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"

	"paragraph/internal/core"
	"paragraph/internal/trace"
)

// Speculative sharding: a chained run cannot start shard i+1 before shard
// i's exit live-well exists, so the analyzer is the wall. A speculative
// run breaks the chain: every shard is compiled concurrently — with no
// entry state at all — into a relocatable core.ShardDelta by a shard
// resolution (core.NewDeltaResolver: validation, location-to-slot
// resolution, record encoding), and a cheap sequential fix-up pass splices
// the deltas in shard order onto one analyzer (core.Analyzer.ApplyDelta).
// The records are policy-free, so one delta per shard serves every config.
// The splice is exact, so results are deep-equal to the chained and
// monolithic runs — the differential battery in speculate_test.go and
// internal/harness enforces it on clean, damaged and budget-governed
// traces.

// BuildShardDelta runs the speculative pass over one decoded shard. The
// records are policy-free, so cfg is unused: any config splices the
// result. On a validation failure the returned delta is non-nil and covers
// the events before the bad one. Only perfbench's ladder builds from
// DecodeShard buffers; analysis attempts use BuildDeltaBytes.
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
// Delta.
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

// spliceShards runs Analyze's speculative mode. Every shard builds through
// BuildDeltaBytes, and each delta is spliced onto a with RunShardDelta as
// soon as it is built, in shard order. A build slot frees only when its
// delta is taken, so at most workers (<= 0: GOMAXPROCS) deltas are being
// built or waiting. A shard whose build failed runs again as a chained
// RunShardBytes attempt from the spliced state, so the failure reported is
// the first in trace order (a governor trip before a bad event wins, as in
// a monolithic run). Builds still running at return are canceled and
// waited for.
func spliceShards(ctx context.Context, a *core.Analyzer, data []byte, cfg core.Config, plan *Plan, workers int, parts []*Result) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	ns := len(plan.Shards)
	builds := make([]chan *Delta, ns)
	start := func(i int) {
		ch := make(chan *Delta, 1)
		builds[i] = ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A failed build sends nil; the chained rerun reports why.
			d, _ := BuildDeltaBytes(ctx, data, cfg, plan.Shards[i], plan.Degraded, ns)
			ch <- d
		}()
	}
	next := min(workers, ns)
	for i := 0; i < next; i++ {
		start(i)
	}
	for i, sh := range plan.Shards {
		d := <-builds[i]
		if next < ns {
			start(next)
			next++
		}
		var err error
		if d == nil {
			parts[i], _, err = RunShardBytes(ctx, a, data, cfg, sh, plan.Degraded, ns, false)
		} else {
			parts[i], _, err = RunShardDelta(a, d.D, cfg, d.ReadStats, i, ns, false)
		}
		if err != nil {
			return err
		}
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
