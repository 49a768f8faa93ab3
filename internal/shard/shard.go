// Package shard partitions a PGTRACE2 trace at chunk boundaries and
// reassembles per-shard analysis results into the exact Result a monolithic
// run produces.
//
// The v2 trace format resets its delta-PC state at every chunk boundary, so
// any accepted chunk is a valid decode entry point. A Split therefore cuts
// only at accepted, event-delivering chunk starts; each shard's byte range
// decodes independently (with the duplicate-chunk detector seeded so a
// shard reader behaves exactly like one reader that had consumed the
// preceding shards). The analysis itself is stateful — placement depends on
// the live well, window and predictor — so shard i's analyzer is seeded
// from shard i-1's state via checkpoint handoff (speculatively, shard i's
// relocatable delta is spliced onto it; see speculate.go), and each shard
// streams into its analyzer as it decodes. The write-only statistics
// (parallelism/storage profiles, lifetime/sharing distributions, governor
// accounting) are harvested per shard and merged exactly; see
// core.ShardStats and Merge.
//
// The differential battery in internal/harness proves the invariant this
// package is built around: for any shard count N >= 1, over clean or
// damaged traces, Merge of the per-shard results is deep-equal to the
// monolithic Result, and the summed per-shard ReadStats equal the
// monolithic ReadStats.
package shard

import (
	"fmt"

	"paragraph/internal/trace"
)

// Options configures splitting and shard analysis.
type Options struct {
	// Degraded reads the trace in degraded mode: damaged chunks are
	// skipped and accounted instead of failing the analysis.
	Degraded bool
	// Concurrency bounds Analyze's speculative shard builds; <= 0 selects
	// GOMAXPROCS. A chained run analyzes one shard at a time.
	Concurrency int
	// Speculate analyzes all shards concurrently: each shard is compiled
	// against an unknown entry live-well into a relocatable
	// core.ShardDelta by a parallel speculative pass, and a cheap
	// sequential fix-up splices the deltas at shard seams. Results are
	// deep-equal to the chained (and monolithic) run; see speculate.go.
	Speculate bool
}

// Shard is one partition of a trace: a byte range that starts where the
// previous shard's last accepted chunk ends (shard 0 starts right after
// the file magic) and ends where the next shard starts. Damage between two
// accepted chunks therefore belongs to the shard after it.
type Shard struct {
	// Index is the shard's position in the plan, 0-based.
	Index int
	// Start and End delimit the byte range [Start, End) of the trace.
	Start int64
	End   int64
	// Chunks is the number of event-delivering chunks in the range.
	Chunks int
	// Events is the number of events the range delivers.
	Events uint64
	// StartEvent is the number of events delivered by preceding shards.
	StartEvent uint64
	// PrevSeq is the sequence number of the last chunk delivered before
	// Start; it seeds the shard reader's duplicate detector so replayed
	// writes straddling a shard boundary are dropped exactly as a single
	// reader would drop them. Meaningful only when HavePrevSeq is set
	// (shard 0 has no predecessor).
	PrevSeq     uint32
	HavePrevSeq bool
}

// Plan is a complete partition of one trace. Shards are contiguous: shard
// 0 starts at trace.HeaderBytes, shard i+1 starts where shard i ends, and
// the last shard ends at the end of the file, so damaged or empty regions
// between event-delivering chunks belong to exactly one shard.
type Plan struct {
	// TraceBytes is the length of the trace the plan was computed from;
	// analysis validates it so a plan is never applied to a different file.
	TraceBytes int64
	// Degraded records the read mode the plan was computed under. Cut
	// points depend on it (degraded reads accept chunks after damage that
	// a fail-fast read never reaches), so analysis must use the same mode.
	Degraded bool
	// TotalEvents is the number of events the whole trace delivers.
	TotalEvents uint64
	// Stats is the ReadStats of the planning scan — what one monolithic
	// read of the trace accumulates. The summed per-shard ReadStats must
	// equal it; the differential battery enforces that.
	Stats trace.ReadStats
	// Shards holds the partition, in trace order.
	Shards []Shard
	// TraceSHA256 is the hex SHA-256 of the trace content the plan was
	// grouped for, recorded by planners that key scans by content
	// (pgserved), so a resumed job notices a trace rewritten at the same
	// size. Split leaves it empty, and an empty value is not written.
	TraceSHA256 string `json:",omitempty"`
}

// Split scans the trace once and partitions it into at most n shards,
// balanced by delivered event count: trace.ScanChunkSpans followed by
// Group. The effective shard count is min(n, event-delivering chunks), and
// always at least 1: a trace that delivers nothing yields a single shard
// covering the whole file.
func Split(data []byte, n int, opts Options) (*Plan, error) {
	spans, rstats, err := trace.ScanChunkSpans(data, opts.Degraded)
	if err != nil {
		return nil, fmt.Errorf("shard: scanning trace: %w", err)
	}
	return Group(spans, rstats, int64(len(data)), n, opts.Degraded)
}

// Group partitions a scanned trace into at most n shards: spans and stats
// are what trace.ScanChunkSpans reported for a traceBytes-long trace read
// with the given mode. It only reads spans, so one scan can be grouped for
// any number of plans, concurrently.
func Group(spans []trace.ChunkSpan, stats trace.ReadStats, traceBytes int64, n int, degraded bool) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", n)
	}
	plan := &Plan{TraceBytes: traceBytes, Degraded: degraded, Stats: stats}
	var total uint64
	for _, s := range spans {
		total += s.Events
	}
	plan.TotalEvents = total
	if len(spans) == 0 {
		plan.Shards = []Shard{{Start: trace.HeaderBytes, End: traceBytes}}
		return plan, nil
	}
	if n > len(spans) {
		n = len(spans)
	}
	shards := make([]Shard, 0, n)
	si := 0
	var cum uint64
	for g := 0; g < n; g++ {
		firstSpan := si
		startEvent := cum
		// Take spans until this group's proportional share of events is
		// reached, keeping at least one span per group — this one and
		// every group still to come. The last group absorbs the rest.
		target := total * uint64(g+1) / uint64(n)
		for si < len(spans) {
			if g < n-1 && si > firstSpan {
				if cum >= target || len(spans)-si <= n-g-1 {
					break
				}
			}
			cum += spans[si].Events
			si++
		}
		sh := Shard{
			Index:      g,
			Start:      trace.HeaderBytes,
			Chunks:     si - firstSpan,
			Events:     cum - startEvent,
			StartEvent: startEvent,
		}
		if g > 0 {
			// Cut where the previous group's last accepted chunk ends:
			// one reader of the whole trace stands there, aligned and
			// seeded with that chunk's sequence number, so this shard's
			// reader meets any damage before its first chunk exactly as
			// that reader does.
			sh.Start = spans[firstSpan-1].End
			sh.PrevSeq = spans[firstSpan-1].Seq
			sh.HavePrevSeq = true
		}
		shards = append(shards, sh)
	}
	for i := range shards {
		if i+1 < len(shards) {
			shards[i].End = shards[i+1].Start
		} else {
			shards[i].End = traceBytes
		}
	}
	plan.Shards = shards
	return plan, nil
}
