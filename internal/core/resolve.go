package core

import (
	"errors"
	"fmt"
	"math"

	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// Shared dependence extraction: the expensive half of analysis — event
// validation, slot resolution, memory-word hashing — depends only on the
// event stream, while everything a configuration varies (syscall
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
// The resolver has three users. A whole-trace resolution (NewResolver)
// starts at event 0 with an empty machine and cuts its stream into bounded
// DepSegments for Schedulers: slot ids are globally dense in first-touch
// order, so a scheduler's slot table starts empty — slots start dead and
// spring to life exactly when the location is first touched. A shard
// resolution (NewDeltaResolver) starts at a shard's first event with
// unknown entry state and compiles the shard into one uncut ShardDelta
// whose slots are pending reads, resolved against the real entry state at
// splice time (Analyzer.ApplyDelta). And every Analyzer owns one, whose
// records it replays on its own slot table, batch by batch; only that
// resolver evicts dead words and recycles their slots (Analyzer.evictDead).

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
// and trace.BatchSink, validating events exactly as an analyzer does (same
// absolute indices, same error values) and compiling them into dependence
// records. It owns the slot tables: a dense array for registers and, for
// memory words, an open-addressed word table (memTable, word address ->
// slot id) — the only hashing in the whole sweep happens here, once.
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
	memSlot memTable
	// free holds the slot ids of evicted memory words, for the next
	// first-touched words to reuse.
	free []uint32
	// plans is the operand-plan table (plan.go), allocated at the first
	// event.
	plans *planTable

	// start is the absolute trace position of the first event not yet
	// counted in totals.
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
	r := &Resolver{emit: emit, start: start, seg: seg, cut: cut}
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

// memSlotID resolves a memory word to its slot, allocating on first touch:
// an evicted word's slot if one is free, else a new one. One probe serves
// both outcomes: a miss inserts at the slot find stopped on.
func (r *Resolver) memSlotID(w uint32) uint32 {
	i, ok := r.memSlot.find(w)
	if ok {
		return uint32(r.memSlot.vals[i])
	}
	var id uint32
	if n := len(r.free); n > 0 {
		id, r.free = r.free[n-1], r.free[:n-1]
	} else {
		id = r.nextSlot()
		r.seg.NewLocs = append(r.seg.NewLocs, w|deltaMemLoc)
	}
	r.memSlot.insertAt(i, w, int32(id))
	return id
}

// slotID resolves a location key (see ShardDelta.Locs) to its slot,
// allocating on first touch.
func (r *Resolver) slotID(loc uint32) uint32 {
	if loc&deltaMemLoc != 0 {
		return r.memSlotID(loc &^ deltaMemLoc)
	}
	return r.regSlotID(isa.Reg(loc))
}

// lookup returns the slot of a location key the resolver has touched.
func (r *Resolver) lookup(loc uint32) (uint32, bool) {
	if loc&deltaMemLoc != 0 {
		id, ok := r.memSlot.get(loc &^ deltaMemLoc)
		return uint32(id), ok
	}
	id := r.regSlot[loc]
	return uint32(id), id >= 0
}

// evict forgets a memory word and frees its slot, returning the slot, if
// the word has one.
func (r *Resolver) evict(w uint32) (uint32, bool) {
	id, ok := r.memSlot.get(w)
	if !ok {
		return 0, false
	}
	r.memSlot.del(w)
	r.free = append(r.free, uint32(id))
	return uint32(id), true
}

// position returns the absolute trace position of the next event.
func (r *Resolver) position() uint64 { return r.start + r.totals.Events }

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

// build compiles one event into the record stream from its plan. Every
// policy decision is left to the replay.
func (r *Resolver) build(e *trace.Event) error {
	seq := r.position()
	if r.plans == nil {
		r.plans = new(planTable)
	}
	p, verr := r.plans.get(e, seq)
	if verr != nil {
		return verr
	}
	r.totals.Events++
	r.seg.Events++
	r.totals.ClassCounts[p.class]++
	if !p.slotted {
		r.fillSlots(e, p)
	}

	switch p.w0 & 7 {
	case deltaKindSkip:
		r.seg.Code = append(r.seg.Code, p.w0)
	case deltaKindSyscall:
		r.totals.Syscalls++
		r.seg.Code = append(r.seg.Code, p.w0)
	case deltaKindJump:
		r.seg.Code = append(r.seg.Code, p.w0, p.slots[0])
	case deltaKindBranch:
		// Whether the branch mispredicts can depend on predictor state
		// flowing across a shard seam, so the record carries everything
		// the replay needs to decide: outcome, direction sign, PC and the
		// source slots that set the resolution level.
		w0 := p.w0
		if e.Taken {
			w0 |= deltaFlagTaken
		}
		r.setCode(appendSlots(append(r.seg.Code, w0, e.PC), p.slots[:p.regs()]))
	default:
		r.place(e, p)
	}
	return nil
}

// fillSlots fills p's register slot words at its first execution in this
// resolver. It resolves the event's operands in record order — a load's
// memory words between its register sources and destinations — so every
// location first touched here gets the slot id per-event resolution gives
// it; the record itself is then emitted from the plan like every later one.
func (r *Resolver) fillSlots(e *trace.Event, p *opPlan) {
	var buf [3]isa.Reg
	n := 0
	add := func(regs []isa.Reg) {
		for _, reg := range regs {
			if reg != isa.Zero {
				p.slots[n] = r.regSlotID(reg)
				n++
			}
		}
	}
	switch p.w0 & 7 {
	case deltaKindJump:
		d, _ := p.ins.Dest()
		p.slots[0] = r.regSlotID(d)
	case deltaKindBranch:
		add(p.ins.SourceRegs(buf[:0]))
	case deltaKindPlace:
		add(p.ins.SourceRegs(buf[:0]))
		if p.load {
			lo, hi := wordRange(e.MemAddr, e.MemSize)
			for w := lo; w <= hi; w++ {
				r.memSlotID(w)
			}
		}
		add(regDests(&p.ins, buf[:0]))
	}
	p.slotted = true
}

// place compiles an ordinary placement. Source and destination slots are
// emitted registers before memory words, memory words lo..hi. The plan's
// word0 counts the register operands; the memory words of the access are
// added to it here.
func (r *Resolver) place(e *trace.Event, p *opPlan) {
	w0 := p.w0
	code := r.seg.Code
	switch {
	case p.load:
		// Register sources, the loaded words, the register destination.
		nsrc := (w0 >> 16) & 0xff
		lo, hi := wordRange(e.MemAddr, e.MemSize)
		code = appendSlots(append(code, w0+(hi-lo+1)<<16), p.slots[:nsrc])
		for w := lo; w <= hi; w++ {
			code = append(code, r.memSlotID(w))
		}
		code = appendSlots(code, p.slots[nsrc:p.regs()])
	case w0&deltaFlagIsStore != 0:
		// Register sources, then the stored words; no store writes a
		// register.
		if e.Seg == trace.SegStack {
			w0 |= deltaFlagIsStack
		}
		lo, hi := wordRange(e.MemAddr, e.MemSize)
		code = appendSlots(append(code, w0+(hi-lo+1)<<24), p.slots[:p.regs()])
		for w := lo; w <= hi; w++ {
			code = append(code, r.memSlotID(w))
		}
	default:
		code = appendSlots(append(code, w0), p.slots[:p.regs()])
	}
	r.setCode(code)
}

// appendSlots appends a plan's slot words to code one by one: for the one
// to three words a record carries, a slice append's memmove call costs
// more than the copy.
func appendSlots(code, ids []uint32) []uint32 {
	for _, id := range ids {
		code = append(code, id)
	}
	return code
}

// setCode stores code, extended by appends from r.seg.Code, back into the
// segment. While the appends stayed within the array only the length
// changes, and reslicing the field in place stores no pointer, so the
// per-event store pays no GC write barrier.
func (r *Resolver) setCode(code []uint32) {
	if cap(code) == cap(r.seg.Code) {
		r.seg.Code = r.seg.Code[:len(code)]
	} else {
		r.seg.Code = code
	}
}

// Scheduler is the per-config stage-2 pass: an analyzer fed by an outside
// resolution. Its events arrive as dependence records instead of trace
// events, and the one placement core replays them on its slot table.
type Scheduler struct {
	a *Analyzer
}

// NewScheduler creates a scheduler for one config. Any resolution can feed
// it: the scheduler applies its config's syscall firewall and storage-term
// class mask to the policy-free records itself.
func NewScheduler(cfg Config) *Scheduler {
	return &Scheduler{a: NewAnalyzer(cfg)}
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
	a.growSlots(seg.NewLocs)
	return a.rp.run(seg.Code, a.slots)
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
