package core

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"

	"paragraph/internal/budget"
	"paragraph/internal/trace"
)

// Two-pass dead-value analysis.
//
// Section 3.2 of the paper gives two ways to keep the live well from
// growing without bound. Method 2 — used for the paper's SPEC runs, and by
// Analyzer on its own — frees a value only when its storage location is
// reused, which required 32 MB of memory for 100M-instruction traces.
// Method 1 processes the trace twice: a first pass discovers each value's
// last use ("if the instructions are processed in reverse, the first
// occurrence of a value is its last use"), so the second, analyzing pass
// can evict values the moment they die.
//
// Our binary trace format is forward-only, so the discovery pass runs
// forward and records, per memory word, where the current value's last
// access happens; the information is identical to what the paper's reverse
// pass inserts into the trace. Eviction is only performed for words in
// renamed segments: a value in a non-renamed segment must stay resident
// after its last read because the next write still needs its lastUse level
// for the storage-dependency term.

// DeathSchedule records, for each trace position, the memory words whose
// values die there (are never accessed again before being overwritten or
// the trace ends), as one list of deaths sorted by position.
type DeathSchedule struct {
	deaths []death
}

// death is one value's death: the word and the position of its last access.
type death struct {
	event uint64
	word  uint32
}

// ComputeDeathSchedule scans a trace and builds the eviction schedule; the
// paper's "value lifetime information ... inserted into the trace".
func ComputeDeathSchedule(r *trace.Reader) (*DeathSchedule, error) {
	return ComputeDeathScheduleContext(context.Background(), r)
}

// ComputeDeathScheduleContext is ComputeDeathSchedule under a cancellation
// context, checked every trace.CtxCheckEvery events.
func ComputeDeathScheduleContext(ctx context.Context, r *trace.Reader) (*DeathSchedule, error) {
	var deaths []death
	// lastAccess holds, for each word with a live value, the index of the
	// value's most recent access (its creation or a later read).
	lastAccess := make(map[uint32]uint64)
	var idx uint64
	err := r.ForEach(func(e *trace.Event) error {
		if idx%trace.CtxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: discovery canceled at event %d: %w", idx, err)
			}
		}
		info := e.Ins.Op.Info()
		if info.IsLoad || info.IsStore {
			lo, hi := wordRange(e.MemAddr, e.MemSize)
			for w := lo; w <= hi; w++ {
				if info.IsStore {
					if last, live := lastAccess[w]; live {
						deaths = append(deaths, death{event: last, word: w})
					}
				}
				lastAccess[w] = idx
			}
		}
		idx++
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Values never accessed again before the trace ends are dead after
	// their final access, exactly like overwritten ones ("a value is dead
	// when it will never again be referenced by an instruction in the
	// trace"). The deaths are sorted by position, and by word within one,
	// and kept in a list of their exact size.
	for w, last := range lastAccess {
		deaths = append(deaths, death{event: last, word: w})
	}
	slices.SortFunc(deaths, func(x, y death) int {
		return cmp.Or(cmp.Compare(x.event, y.event), cmp.Compare(x.word, y.word))
	})
	return &DeathSchedule{deaths: slices.Clone(deaths)}, nil
}

// Values returns how many value deaths the schedule recorded.
func (ds *DeathSchedule) Values() uint64 { return uint64(len(ds.deaths)) }

// UseDeathSchedule arms the analyzer with an eviction schedule from a prior
// discovery pass. Must be called before the first Event.
func (a *Analyzer) UseDeathSchedule(ds *DeathSchedule) error {
	if err := a.flush(); err != nil {
		return err
	}
	if a.instructions > 0 || a.finished {
		return fmt.Errorf("core: UseDeathSchedule after analysis started")
	}
	a.useDeaths(ds)
	return nil
}

// useDeaths arms the schedule at the analyzer's position: the cursor skips
// the deaths of the events already analyzed.
func (a *Analyzer) useDeaths(ds *DeathSchedule) {
	a.deaths = ds
	a.nextDeath, _ = slices.BinarySearchFunc(ds.deaths, a.instructions, func(d death, pos uint64) int {
		return cmp.Compare(d.event, pos)
	})
}

// evictDead compiles the deaths at event seq, whose record starts at code
// position at, into that record: the resolver forgets each dying word and
// frees its slot, and the record carries the slots for the replay to kill
// after the event's placement, before its storage sample and governor
// check. Only words in renamed segments are evicted (their lastUse will
// never be consulted again); the segment of a word is recovered from its
// address by the same classification the tracer used. A freed slot is
// reused by the next first-touched word, whose record replays after the
// kill, so the slot table stays as small as the live well.
func (a *Analyzer) evictDead(seq uint64, at int) {
	ds := a.deaths.deaths
	i := a.nextDeath
	if i >= len(ds) || ds[i].event != seq {
		return
	}
	r := a.res
	count := len(r.seg.Code)
	r.seg.Code = append(r.seg.Code, 0)
	for ; i < len(ds) && ds[i].event == seq; i++ {
		if w := ds[i].word; a.renamedSeg(segmentOfWord(w)) {
			if id, ok := r.evict(w); ok {
				r.seg.Code = append(r.seg.Code, id)
			}
		}
	}
	a.nextDeath = i
	if n := len(r.seg.Code) - count - 1; n > 0 {
		r.seg.Code[count] = uint32(n)
		r.seg.Code[at] |= deltaFlagEvict
	} else {
		r.seg.Code = r.seg.Code[:count]
	}
}

// stackFloor is the byte-address boundary of the stack region; it mirrors
// the CPU tracer's classification (cpu.stackRegionFloor), which event
// validation and word-segment recovery must agree with.
const stackFloor uint32 = 0x70000000

// segmentOfWord classifies a word address with the same boundaries the CPU
// tracer uses (trace.SegStack above stackFloor, data/heap below). Heap and
// data share a renaming switch, so the heap boundary is not needed here.
func segmentOfWord(w uint32) trace.Segment {
	if w >= stackFloor>>2 {
		return trace.SegStack
	}
	return trace.SegData
}

// TwoPassOptions configures AnalyzeTwoPassOpts beyond the analysis Config.
type TwoPassOptions struct {
	// Degraded reads the trace in graceful-degradation mode: corrupt v2
	// chunks are skipped (identically in both passes, so the death
	// schedule stays consistent with the analysis pass) instead of
	// aborting the run.
	Degraded bool
	// CheckpointEvery takes a state snapshot every this many events during
	// the analysis pass; 0 disables checkpointing.
	CheckpointEvery uint64
	// OnCheckpoint receives each snapshot. Returning an error aborts the
	// pass with that error — which is also how tests simulate an
	// interruption at an exact trace position. Ignored when
	// CheckpointEvery is 0.
	OnCheckpoint func(*Checkpoint) error
	// Stats, when non-nil, receives the analysis-pass reader's skip
	// accounting on successful return — the exact number of events lost
	// to corrupt chunks in degraded mode.
	Stats *trace.ReadStats
	// FinalOnCancel flushes one last snapshot through OnCheckpoint when
	// the analysis pass observes cancellation, so an interrupted run
	// (Ctrl-C, SIGTERM) resumes from the interruption point instead of the
	// last periodic checkpoint. Ignored when OnCheckpoint is nil.
	FinalOnCancel bool
}

// AnalyzeTwoPass runs the paper's Method-1 pipeline over a stored trace:
// discovery pass, rewind, analysis pass with eager eviction. The metrics
// are identical to a single-pass analysis; the live-well footprint
// (Result.MaxLiveMemoryWords) is what shrinks.
func AnalyzeTwoPass(rs io.ReadSeeker, cfg Config) (*Result, error) {
	return AnalyzeTwoPassOpts(context.Background(), rs, cfg, TwoPassOptions{})
}

// AnalyzeTwoPassOpts is AnalyzeTwoPass with cancellation and fault-tolerance
// options: degraded reads over damaged traces and periodic checkpoints for
// resuming an interrupted pass (see ResumeTwoPass). Cancelling ctx aborts
// either pass within budget.CheckEvery events, returning an error wrapping
// ctx.Err().
func AnalyzeTwoPassOpts(ctx context.Context, rs io.ReadSeeker, cfg Config, opts TwoPassOptions) (*Result, error) {
	ds, err := discoverDeaths(ctx, rs, opts)
	if err != nil {
		return nil, err
	}
	r, err := trace.NewReaderOpts(rs, trace.ReaderOptions{Degraded: opts.Degraded})
	if err != nil {
		return nil, err
	}
	a := NewAnalyzer(cfg)
	if err := a.UseDeathSchedule(ds); err != nil {
		return nil, err
	}
	return runAnalysisPass(ctx, a, r, 0, opts)
}

// AnalyzeTraceOpts runs a single-pass (Method-2) analysis over a stored
// trace under a cancellation context, with the same checkpoint and degraded-
// read options as the two-pass pipeline. Checkpoints taken here restore to
// single-pass analyzers; ResumeTwoPass detects which pipeline a checkpoint
// came from and only recomputes a death schedule for two-pass ones.
func AnalyzeTraceOpts(ctx context.Context, rs io.ReadSeeker, cfg Config, opts TwoPassOptions) (*Result, error) {
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	r, err := trace.NewReaderOpts(rs, trace.ReaderOptions{Degraded: opts.Degraded})
	if err != nil {
		return nil, err
	}
	return runAnalysisPass(ctx, NewAnalyzer(cfg), r, 0, opts)
}

// ResumeTwoPass continues an interrupted analysis pass from a checkpoint:
// the reader is fast-forwarded past the events the checkpoint already
// consumed and the restored analyzer processes the rest. The result is
// identical to an uninterrupted run over the same trace. The options'
// Degraded flag must match the original run, or the event numbering
// diverges.
//
// A checkpoint loaded from disk (LoadCheckpoint) does not carry the death
// schedule — it can rival the live well in size — so resumption re-runs the
// discovery pass first when the original analysis had one. In-memory
// checkpoints share the original schedule and skip that. Despite the name,
// single-pass checkpoints resume here too; they simply never need the
// discovery pass.
func ResumeTwoPass(ctx context.Context, rs io.ReadSeeker, cp *Checkpoint, opts TwoPassOptions) (*Result, error) {
	a := cp.Restore()
	if cp.needDeaths {
		ds, err := discoverDeaths(ctx, rs, opts)
		if err != nil {
			return nil, err
		}
		a.useDeaths(ds)
	}
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	r, err := trace.NewReaderOpts(rs, trace.ReaderOptions{Degraded: opts.Degraded})
	if err != nil {
		return nil, err
	}
	var e trace.Event
	for skipped := uint64(0); skipped < cp.EventOffset; skipped++ {
		if skipped%budget.CheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: resume canceled while skipping to event %d: %w", cp.EventOffset, err)
			}
		}
		if err := r.Next(&e); err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("core: resume: trace ended at event %d, before checkpoint offset %d", skipped, cp.EventOffset)
			}
			return nil, fmt.Errorf("core: resume: %w", err)
		}
	}
	return runAnalysisPass(ctx, a, r, cp.EventOffset, opts)
}

// discoverDeaths runs the discovery pass from the start of the trace and
// rewinds the input for the analysis pass.
func discoverDeaths(ctx context.Context, rs io.ReadSeeker, opts TwoPassOptions) (*DeathSchedule, error) {
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	r, err := trace.NewReaderOpts(rs, trace.ReaderOptions{Degraded: opts.Degraded})
	if err != nil {
		return nil, err
	}
	ds, err := ComputeDeathScheduleContext(ctx, r)
	if err != nil {
		return nil, fmt.Errorf("core: discovery pass: %w", err)
	}
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return ds, nil
}

// runAnalysisPass drives the analyzer over the remaining events of r in
// batches of trace.DefaultBatchEvents. idx is the trace position of the
// next event (non-zero when resuming). The cancellation guard is hoisted
// to batch granularity — one ctx.Err() per batch bounds cancellation
// latency to the same budget.CheckEvery events the per-event cadence did —
// and batches are trimmed to never straddle a checkpoint boundary, so
// snapshots land at the exact positions the per-event loop produced.
func runAnalysisPass(ctx context.Context, a *Analyzer, r *trace.Reader, idx uint64, opts TwoPassOptions) (*Result, error) {
	batch := make([]trace.Event, trace.DefaultBatchEvents)
	for {
		if err := ctx.Err(); err != nil {
			if opts.FinalOnCancel && opts.OnCheckpoint != nil && idx > 0 {
				if serr := opts.OnCheckpoint(a.Snapshot()); serr != nil {
					return nil, fmt.Errorf("core: final checkpoint at event %d: %w", idx, serr)
				}
			}
			return nil, fmt.Errorf("core: analysis canceled at event %d: %w", idx, err)
		}
		want := len(batch)
		if opts.CheckpointEvery > 0 {
			if to := opts.CheckpointEvery - idx%opts.CheckpointEvery; uint64(want) > to {
				want = int(to)
			}
		}
		n, rerr := r.ReadBatch(batch[:want])
		if n > 0 {
			if err := a.Events(batch[:n]); err != nil {
				return nil, fmt.Errorf("core: analysis pass: %w", err)
			}
			idx += uint64(n)
			if opts.CheckpointEvery > 0 && idx%opts.CheckpointEvery == 0 && opts.OnCheckpoint != nil {
				if err := opts.OnCheckpoint(a.Snapshot()); err != nil {
					return nil, fmt.Errorf("core: checkpoint at event %d: %w", idx, err)
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, fmt.Errorf("core: analysis pass: %w", rerr)
		}
	}
	if opts.Stats != nil {
		*opts.Stats = r.Stats()
	}
	return a.Finish()
}
