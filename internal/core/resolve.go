package core

import (
	"errors"
	"fmt"
	"math"

	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// Shared dependence extraction: the expensive half of analysis — event
// validation, live-well slot resolution, memory-word hashing — depends only
// on the event stream, while everything a configuration varies (syscall
// policy, renaming, window size, functional units, branch policy,
// latencies, profiles, budgets) only affects the cheap max-plus replay. A
// Resolver therefore consumes a trace once and compiles it into
// slot-addressed dependence records (the encoding is documented in
// delta.go), and any number of replays consume those records with pure
// array indexing, one per config. One resolution serves every
// configuration: Tables 3 and 4 and a Figure 8 sweep cost 1× resolution +
// N× scheduling instead of N× full analysis.
//
// The records are policy-free. In the placement rule
//
//	Ldest = MAX(Lsrc..., highestLevel-1, Ddest+1) + top
//
// the syscall and renaming switches only decide whether a syscall raises
// highestLevel and whether the Ddest+1 term applies, so the resolver
// decides neither: it always emits syscall records, and it flags each
// placement's destination class (register, stack or data memory) in the
// record's first word. Each replay derives its syscall firewall and a
// storage-term class mask from its own config. Branch records are likewise
// always full (PC, direction sign, outcome, source slots); a perfect-branch
// replay consumes and ignores them.
//
// The resolver has two outputs. A whole-trace resolution (NewResolver)
// starts at event 0 with an empty machine and cuts its stream into bounded
// DepSegments for Schedulers: slot ids are globally dense in first-touch
// order, so a scheduler's slot table is never materialized from a live
// well — slots start dead and spring to life exactly when a sequential
// analyzer would first touch the location. A shard resolution
// (NewDeltaResolver) starts at a shard's first event with unknown entry
// state and compiles the shard into one uncut ShardDelta whose slots are
// pending reads, resolved against the real entry state at splice time
// (Analyzer.ApplyDelta).

// DepSegment is one bounded batch of the dependence-record stream. Segments
// are immutable while consumers hold them and are shared read-only by every
// scheduler.
type DepSegment struct {
	// NewLocs lists the locations first touched in this segment, in slot-id
	// order: the slot table grows by exactly these entries (register number,
	// or word address with deltaMemLoc set) before Code replays.
	NewLocs []uint32
	// Code is the flat record stream (see delta.go).
	Code []uint32
	// Events is the number of events compiled into Code.
	Events uint64
}

// ResolveTotals carries the entry-state-independent scalar results of a
// resolution, folded into each scheduler's Result at Finish.
type ResolveTotals struct {
	Events      uint64
	Syscalls    uint64
	ClassCounts [16]uint64
}

// resolveSegWords cuts segments at 96 KB of code: big enough that the
// per-segment hand-off cost vanishes against replay, small enough that a
// trace.DefaultSegRingDepth ring of segments plus the one being filled
// (~1.7 MB) holds no more than a default trace.Ring of raw events
// (~1.8 MB).
const resolveSegWords = 24 << 10

// ResolveSegmentBytes bounds the bytes one emitted DepSegment holds: Code
// is cut at resolveSegWords plus at most one record of overshoot (a store
// touches at most 65 words), and NewLocs never exceeds the slot references
// in Code. The harness uses it to fit the segment ring into a memory
// budget the way trace.RingFootprint fits the event ring.
const ResolveSegmentBytes = int64(resolveSegWords+160) * 2 * 4

// Resolver is the config-invariant stage-1 pass. It implements trace.Sink
// and trace.BatchSink, validating events exactly as a sequential analyzer
// does (same absolute indices, same error values) and compiling them into
// dependence records. It owns the slot tables — the only hashing in the
// whole sweep happens here, once.
//
// On a validation error the records for every event before the bad one are
// kept — a whole-trace resolution still emits them on Flush, a shard
// resolution's Delta covers them — so replays observe the same prefix a
// sequential analyzer would have analyzed before failing. Slot ids are
// below 2^30 word addresses plus the register count, so they always fit
// the int32 slot tables.
type Resolver struct {
	emit func(*DepSegment) error // nil for a shard resolution

	regSlot [isa.NumRegs]int32
	memSlot *slotTable
	srcBuf  []isa.Reg

	// start is the absolute trace position of the first event.
	start uint64
	// slotBase counts the slots allocated in all flushed segments; ids stay
	// globally dense across segment cuts.
	slotBase uint32
	seg      DepSegment
	totals   ResolveTotals
	// spare is a segment handed back through Reuse: its arrays back the
	// next segment and its struct carries the one after.
	spare *DepSegment
	// cut is the code length at which a segment is flushed.
	cut int
}

// NewResolver starts a whole-trace resolution whose segments reach emit.
// The records are policy-free, so cfg is unused: it is kept for call-site
// symmetry with NewScheduler, and any config's schedulers can replay the
// result. Emitted segments must not be mutated.
func NewResolver(cfg Config, emit func(*DepSegment) error) *Resolver {
	return newResolver(emit, 0, resolveSegWords, newDepSegment())
}

// NewDeltaResolver starts a shard resolution: the speculative pass over a
// shard whose first event sits at absolute trace position start, so
// validation errors carry the same indices a chained run reports. It never
// cuts: the shard compiles into one segment whose code array is presized
// for n events (about four words cover the common event; denser events
// append past the hint), and Delta returns it. It holds no levels and no
// entry state, so any number of shard resolutions of one trace can run
// concurrently.
func NewDeltaResolver(start uint64, n int) *Resolver {
	return newResolver(nil, start, math.MaxInt, DepSegment{Code: make([]uint32, 0, 4*n)})
}

func newResolver(emit func(*DepSegment) error, start uint64, cut int, seg DepSegment) *Resolver {
	r := &Resolver{emit: emit, memSlot: newSlotTable(), start: start, seg: seg, cut: cut}
	for i := range r.regSlot {
		r.regSlot[i] = -1
	}
	return r
}

// Reuse hands an emitted segment back to the resolver once no consumer
// references it or its arrays any more; its arrays back a later segment.
// The emit callback may call it — with the segment it was just given, when
// it consumes segments synchronously, or with one a bounded ring displaced
// — so a whole resolution allocates a fixed set of buffers instead of one
// pair per segment. Without Reuse every segment gets fresh arrays and
// consumers may keep them.
func (r *Resolver) Reuse(seg *DepSegment) { r.spare = seg }

// Totals returns the scalar totals accumulated so far. Stable only after
// the final Flush.
func (r *Resolver) Totals() ResolveTotals { return r.totals }

// Delta returns a shard resolution's records as a ShardDelta. After a
// validation error it covers every event before the failing one.
func (r *Resolver) Delta() *ShardDelta {
	return &ShardDelta{
		StartEvent:  r.start,
		Events:      r.seg.Events,
		Locs:        r.seg.NewLocs,
		Code:        r.seg.Code,
		ClassCounts: r.totals.ClassCounts,
		Syscalls:    r.totals.Syscalls,
	}
}

// nextSlot returns the next dense slot id: the count of slots allocated in
// all flushed segments plus those pending in the current one.
func (r *Resolver) nextSlot() uint32 { return r.slotBase + uint32(len(r.seg.NewLocs)) }

// regSlotID resolves a register to its slot, allocating on first touch.
func (r *Resolver) regSlotID(reg isa.Reg) uint32 {
	if id := r.regSlot[reg]; id >= 0 {
		return uint32(id)
	}
	id := r.nextSlot()
	r.regSlot[reg] = int32(id)
	r.seg.NewLocs = append(r.seg.NewLocs, uint32(reg))
	return id
}

// memSlotID resolves a memory word to its slot, allocating on first touch.
func (r *Resolver) memSlotID(w uint32) uint32 {
	if id := r.memSlot.lookup(w); id >= 0 {
		return uint32(id)
	}
	id := r.nextSlot()
	r.memSlot.insert(w, int32(id))
	r.seg.NewLocs = append(r.seg.NewLocs, w|deltaMemLoc)
	return id
}

// Event implements trace.Sink.
func (r *Resolver) Event(e *trace.Event) error {
	if err := r.build(e); err != nil {
		return err
	}
	if len(r.seg.Code) >= r.cut {
		return r.Flush()
	}
	return nil
}

// Events implements trace.BatchSink.
func (r *Resolver) Events(batch []trace.Event) error {
	for i := range batch {
		if err := r.build(&batch[i]); err != nil {
			return err
		}
		if len(r.seg.Code) >= r.cut {
			if err := r.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush emits the pending segment, if any. The producer calls it once more
// after the last event to deliver the final partial segment. A shard
// resolution has nothing to flush: its one segment is its Delta.
func (r *Resolver) Flush() error {
	if r.emit == nil || len(r.seg.Code) == 0 && len(r.seg.NewLocs) == 0 {
		return nil
	}
	r.slotBase += uint32(len(r.seg.NewLocs))
	out := r.spare
	if out == nil {
		out = new(DepSegment)
	}
	r.spare = nil
	*out = r.seg
	err := r.emit(out)
	if sp := r.spare; sp != nil {
		// sp's arrays back the next segment; sp itself stays spare, its
		// struct reused by the next Flush.
		r.seg = DepSegment{NewLocs: sp.NewLocs[:0], Code: sp.Code[:0]}
	} else {
		r.seg = newDepSegment()
	}
	return err
}

// newDepSegment returns empty segment arrays sized so that a full segment
// never regrows its code.
func newDepSegment() DepSegment {
	return DepSegment{
		NewLocs: make([]uint32, 0, 256),
		Code:    make([]uint32, 0, resolveSegWords+256),
	}
}

// build compiles one event into the record stream. The dispatch mirrors
// Analyzer.event, except that every policy decision is left to the replay;
// the slot references are emitted in exactly the order the analyzer
// touches the corresponding live-well locations, so the replay is
// operation-for-operation identical.
func (r *Resolver) build(e *trace.Event) error {
	seq := r.start + r.totals.Events
	if verr := validateEvent(e, seq); verr != nil {
		return verr
	}
	r.totals.Events++
	r.seg.Events++

	op := e.Ins.Op
	info := op.Info()
	r.totals.ClassCounts[info.Class]++

	w0 := uint32(deltaKindSkip) | uint32(op)<<8
	switch {
	case op == isa.NOP:
		r.seg.Code = append(r.seg.Code, w0)
		return nil
	case e.IsSyscall():
		r.totals.Syscalls++
		r.seg.Code = append(r.seg.Code, w0|deltaKindSyscall)
		return nil
	case info.IsJump:
		if dst, ok := e.Ins.Dest(); ok {
			// bindConstant does not skip $zero, so neither does the
			// record: the binding is observable through retirement
			// statistics.
			r.seg.Code = append(r.seg.Code, w0|deltaKindJump|1<<24, r.regSlotID(dst))
		} else {
			r.seg.Code = append(r.seg.Code, w0)
		}
		return nil
	case info.IsBranch:
		// Whether the branch mispredicts can depend on predictor state
		// flowing across a shard seam, so the record carries everything
		// the replay needs to decide: outcome, direction sign, PC and the
		// source slots that set the resolution level.
		w0 |= deltaKindBranch
		if e.Taken {
			w0 |= deltaFlagTaken
		}
		if e.Ins.Imm < 0 {
			w0 |= deltaFlagImmNeg
		}
		r.srcBuf = e.Ins.SourceRegs(r.srcBuf[:0])
		nsrc := uint32(0)
		at := len(r.seg.Code)
		r.seg.Code = append(r.seg.Code, 0, e.PC)
		for _, reg := range r.srcBuf {
			if reg == isa.Zero {
				continue
			}
			r.seg.Code = append(r.seg.Code, r.regSlotID(reg))
			nsrc++
		}
		r.seg.Code[at] = w0 | nsrc<<16
		return nil
	}

	// Ordinary placement. Source and destination slots are emitted in
	// live-well touch order: registers before memory words, memory words
	// lo..hi. nsrc and ndst fit a byte: at most 3 register sources and —
	// MemSize being a byte — at most 65 words per access. A store writes
	// no register, so one record's destinations share a class.
	w0 |= deltaKindPlace
	at := len(r.seg.Code)
	r.seg.Code = append(r.seg.Code, 0)

	r.srcBuf = e.Ins.SourceRegs(r.srcBuf[:0])
	nsrc := uint32(0)
	for _, reg := range r.srcBuf {
		if reg == isa.Zero {
			continue
		}
		r.seg.Code = append(r.seg.Code, r.regSlotID(reg))
		nsrc++
	}
	if info.IsLoad {
		lo, hi := wordRange(e.MemAddr, e.MemSize)
		for w := lo; w <= hi; w++ {
			r.seg.Code = append(r.seg.Code, r.memSlotID(w))
			nsrc++
		}
	}

	ndst := uint32(0)
	var dbuf [2]isa.Reg
	for _, dst := range regDests(&e.Ins, dbuf[:0]) {
		if dst == isa.Zero {
			continue
		}
		r.seg.Code = append(r.seg.Code, r.regSlotID(dst))
		ndst++
	}
	if info.IsStore {
		w0 |= deltaFlagIsStore
		if e.Seg == trace.SegStack {
			w0 |= deltaFlagIsStack
		}
		lo, hi := wordRange(e.MemAddr, e.MemSize)
		for w := lo; w <= hi; w++ {
			r.seg.Code = append(r.seg.Code, r.memSlotID(w))
			ndst++
		}
	}
	r.seg.Code[at] = w0 | nsrc<<16 | ndst<<24
	return nil
}

// Scheduler is the per-config stage-2 pass: a fresh analyzer whose events
// arrive as dependence records instead of trace events. Replay maintains
// every level-dependent structure — firewall floor, window displacement, FU
// counting, predictor, governor cadence, histograms — with array indexing
// only; no hashing and no live well.
type Scheduler struct {
	a  *Analyzer
	rp deltaReplay
}

// NewScheduler creates a scheduler for one config. Any resolution can feed
// it: the scheduler applies its config's syscall firewall and storage-term
// class mask to the policy-free records itself.
func NewScheduler(cfg Config) *Scheduler {
	s := &Scheduler{a: NewAnalyzer(cfg)}
	s.rp.init(s.a)
	return s
}

// Apply replays one segment. Segments must arrive in emission order.
func (s *Scheduler) Apply(seg *DepSegment) (err error) {
	a := s.a
	if a.finished {
		return errors.New("core: Event after Finish")
	}
	start := a.instructions
	defer func() {
		if v := recover(); v != nil {
			ev := a.instructions
			if ev > start {
				ev-- // the panic came from the record being replayed
			}
			err = &AnalysisError{Event: ev, Stage: "event", Cause: recoveredError(v)}
		}
	}()
	for _, loc := range seg.NewLocs {
		s.rp.slots = append(s.rp.slots, deltaSlot{isMem: loc&deltaMemLoc != 0})
	}
	return s.rp.run(seg.Code)
}

// Finish folds the resolver's totals and produces the Result. The totals'
// event count must match the number of events replayed — a mismatch means
// segments were dropped or misordered and the result would be silently
// wrong.
func (s *Scheduler) Finish(totals ResolveTotals) (*Result, error) {
	a := s.a
	if a.finished {
		return nil, errors.New("core: Finish called twice")
	}
	if totals.Events != a.instructions {
		return nil, fmt.Errorf("core: scheduler replayed %d events but resolver produced %d", a.instructions, totals.Events)
	}
	// Values still live at the end of the trace die here, exactly as
	// Analyzer.Finish retires its live well — which for a scheduler's
	// analyzer stays empty. Slots that stayed dead (e.g. sources of
	// never-mispredicted branches) hold no value. Retirement feeds only
	// order-independent distributions, so slot order is as good as well
	// order.
	if a.cfg.Lifetimes || a.cfg.Sharing {
		for i := range s.rp.slots {
			if sl := &s.rp.slots[i]; sl.live {
				a.retire(sl.val)
			}
		}
	}
	a.syscalls += totals.Syscalls
	for c, n := range totals.ClassCounts {
		a.classCounts[c] += n
	}
	return a.Finish()
}

// SchedulerGang applies each segment to a group of Schedulers in turn, so
// perfbench's core.gang ladder stage times the per-config schedules
// segment by segment. It exists only for that stage; the benchmark change
// that retires the stage (ROADMAP item 1) deletes this type with it.
type SchedulerGang struct{ sch []*Scheduler }

// NewSchedulerGang groups freshly created schedulers.
func NewSchedulerGang(scheds []*Scheduler) *SchedulerGang { return &SchedulerGang{sch: scheds} }

// Apply replays one segment through every scheduler of the group.
func (g *SchedulerGang) Apply(seg *DepSegment) error {
	for _, s := range g.sch {
		if err := s.Apply(seg); err != nil {
			return err
		}
	}
	return nil
}

// Seal does nothing: each scheduler already holds its own final state.
func (g *SchedulerGang) Seal() {}
