package core

import (
	"maps"
	"slices"
)

// Checkpoint is a resumable snapshot of an in-progress analysis: the full
// analyzer state (slot tables, firewall floor, window, schedules, statistics)
// together with the trace position it was taken at. A long analysis pass
// that is interrupted — a crash, a deploy, a preempted batch job — restarts
// from its last checkpoint instead of from the beginning of a
// 100M-instruction trace.
//
// Checkpoints are in-memory objects: the live values dominate their size,
// exactly as they dominate the analyzer's. Restore may be called any number
// of times; each call yields an independent analyzer.
type Checkpoint struct {
	// EventOffset is the number of trace events consumed when the snapshot
	// was taken; resumption must skip exactly this many events.
	EventOffset uint64

	a *Analyzer

	// needDeaths marks a checkpoint that was loaded from disk without its
	// death schedule (schedules are not persisted — they can rival the live
	// well in size). ResumeTwoPass re-runs the discovery pass for such
	// checkpoints; in-memory snapshots keep sharing the original schedule.
	needDeaths bool
}

// Snapshot replays the pending records and deep-copies the analyzer's
// state into a checkpoint. The analyzer remains usable; the checkpoint is
// unaffected by further events.
func (a *Analyzer) Snapshot() *Checkpoint {
	_ = a.flush() // a failure stays in the analyzer, and its clone, for the next Event or Finish
	return &Checkpoint{EventOffset: a.instructions, a: a.clone()}
}

// Restore returns a fresh analyzer positioned exactly as the snapshotted one
// was: feeding it the events after EventOffset reproduces the original run.
func (cp *Checkpoint) Restore() *Analyzer {
	return cp.a.clone()
}

// clone deep-copies the analyzer, whose records must all be replayed.
// Value-typed state (scalars, the LogDist distributions, the Config apart
// from its override map) copies with the struct; reference-typed state is
// duplicated below. The death schedule is shared: it is immutable once
// computed.
func (a *Analyzer) clone() *Analyzer {
	b := *a
	b.rp.a = &b
	b.cfg.LatencyOverride = maps.Clone(a.cfg.LatencyOverride)
	if a.res != nil {
		b.res = a.res.clone()
	}
	b.slots = slices.Clone(a.slots)
	if a.profile != nil {
		b.profile = a.profile.Clone()
	}
	if a.storage != nil {
		b.storage = a.storage.Clone()
	}
	b.window = windowState{
		buf:  slices.Clone(a.window.buf),
		head: a.window.head,
		tail: a.window.tail,
	}
	if a.fu != nil {
		b.fu = a.fu.clone()
	}
	if a.pred != nil {
		b.pred = a.pred.clone()
	}
	if a.gov != nil {
		b.gov = a.gov.Clone()
	}
	return &b
}

// clone deep-copies an analyzer's resolver, which holds no pending records.
// A clone plans afresh: plan tables are never shared.
func (r *Resolver) clone() *Resolver {
	c := *r
	c.memSlot = *r.memSlot.clone()
	c.free = slices.Clone(r.free)
	c.plans = nil
	c.seg = DepSegment{Code: make([]uint32, 0, analyzerBufWords)}
	return &c
}

// clone deep-copies the functional-unit schedule.
func (f *fuSchedule) clone() *fuSchedule {
	c := *f
	c.counts = maps.Clone(f.counts)
	return &c
}

// clone deep-copies the branch predictor (its counter table in particular).
func (p *predictor) clone() *predictor {
	c := *p
	c.counters = slices.Clone(p.counters)
	return &c
}
