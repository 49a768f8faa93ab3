package core

import (
	"errors"
	"fmt"

	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// Speculative sharding: the placement rule is inherently sequential — every
// level depends on the live well left by all preceding events — so PR 4's
// sharding chained shard i+1's analyzer on shard i's exit checkpoint and the
// analyzer remained the wall. The observation that breaks the chain is that
// almost everything *except* the levels is entry-state independent: which
// storage locations an event touches, in which roles (source, destination,
// storage-dependency check), with what latency class, and whether the event
// is placed at all are functions of the event stream and the configuration
// alone. A speculative pass over one shard can therefore run with no entry
// live-well at all, resolving every location it touches to a dense
// shard-local slot id (the pending-read table: slot 0 is the first location
// the shard touches, and its entry state is unknown until splice time) and
// compiling the shard into a flat stream of slot-addressed op records — a
// ShardDelta. The sequential fix-up (Analyzer.ApplyDelta) then splices a
// delta onto the real entry state: it materializes each slot from the
// predecessor's exit live-well, replays the record stream maintaining all
// level-dependent state (floor, window, functional units, predictor,
// governor, statistics) with pure array indexing instead of hashing and
// dispatch, and writes the touched slots back. The result is exact by
// construction — ApplyDelta performs the same placements in the same order
// as Analyzer.Event would — so speculative N-shard analysis is deep-equal
// to the monolithic run, which the differential battery enforces.
//
// The record stream encodes one record per trace event:
//
//	word0: kind(3) | taken(1<<3) | immNeg(1<<4) | isStore(1<<5) |
//	       op(8)<<8 | nsrc(8)<<16 | ndst(8)<<24
//	branch records:  word0, pc, src slots
//	place records:   word0, src slots, dest slots
//	jump records:    word0, dest slot
//	skip/syscall:    word0 only
//
// Source words are plain slot ids. Destination words carry the
// deltaStorageTerm bit when storage dependencies apply to that location
// under the build config (register renaming / per-segment memory renaming
// resolved at build time). Every event emits a record — even NOPs — because
// window displacement, the storage profile and the governor cadence are
// per-event.
const (
	deltaKindSkip    = 0 // NOP, destless jump; in a ShardDelta also an optimistic syscall or perfect-policy branch
	deltaKindPlace   = 1 // ordinary placement (ALU, FP, load, store)
	deltaKindJump    = 2 // jump binding a return-address constant
	deltaKindBranch  = 3 // conditional branch (a DepSegment records every one)
	deltaKindSyscall = 4 // syscall: a firewall under the conservative policy

	deltaFlagTaken   = 1 << 3
	deltaFlagImmNeg  = 1 << 4
	deltaFlagIsStore = 1 << 5

	// deltaMemLoc marks a memory-word location key in ShardDelta.Locs
	// (word addresses are byte addresses >> 2, so they fit in 30 bits).
	deltaMemLoc = uint32(1) << 31
	// deltaStorageTerm marks a destination slot whose previous value's
	// lastUse feeds the placement rule's Ddest+1 term.
	deltaStorageTerm = uint32(1) << 31
)

// BuildSig captures the configuration switches that are compiled into a
// ShardDelta's record stream. ApplyDelta refuses a delta whose signature
// does not match the analyzer's config: the stream would encode the wrong
// dispatch decisions. Latencies, window size, functional units, profiles
// and budgets are deliberately absent — they are applied at splice time
// from the analyzer's own config, so governor-driven window changes that
// cross a shard seam need no rebuild.
type BuildSig struct {
	Syscalls        SyscallPolicy
	Branches        BranchPolicy
	RenameRegisters bool
	RenameStack     bool
	RenameData      bool
}

func buildSig(cfg *Config) BuildSig {
	return BuildSig{
		Syscalls:        cfg.Syscalls,
		Branches:        cfg.Branches,
		RenameRegisters: cfg.RenameRegisters,
		RenameStack:     cfg.RenameStack,
		RenameData:      cfg.RenameData,
	}
}

// ShardDelta is the relocatable output of a speculative pass over one
// shard's events: levels and liveness are expressed relative to the shard's
// unknown entry state, so the delta can be built with no predecessor and
// spliced onto any analyzer positioned at StartEvent. All fields are
// exported and gob-encode, so deltas cross process and machine boundaries
// like shard results do.
type ShardDelta struct {
	// Sig records the build-relevant configuration switches.
	Sig BuildSig
	// StartEvent is the absolute trace position of the first event;
	// validation errors during the build already carry absolute indices.
	StartEvent uint64
	// Events is the number of events compiled into Code.
	Events uint64
	// Locs is the pending-read table: slot id -> location key, in
	// first-touch order. Register keys are the register number; memory
	// keys are the word address with the deltaMemLoc bit set. Which of
	// these locations hold live values at shard entry — and at what
	// levels — is unknown until splice time.
	Locs []uint32
	// Code is the flat record stream described above.
	Code []uint32
	// ClassCounts and Syscalls are the shard's entry-state-independent
	// scalar contributions, folded in when the delta is applied.
	ClassCounts [16]uint64
	Syscalls    uint64
}

// slotTable maps memory word addresses to dense slot ids during a build:
// open addressing with Fibonacci hashing and linear probing, mirroring the
// live well's memTable but with 8-byte entries and no deletion.
type slotTable struct {
	keys []uint32
	ids  []int32 // -1 = empty
	n    int
	mask uint32
}

func newSlotTable() *slotTable {
	const initSize = 1024
	t := &slotTable{
		keys: make([]uint32, initSize),
		ids:  make([]int32, initSize),
		mask: initSize - 1,
	}
	for i := range t.ids {
		t.ids[i] = -1
	}
	return t
}

func slotHash(w, mask uint32) uint32 {
	return (w * 2654435769) & mask
}

// lookup returns the slot id for word, or -1.
func (t *slotTable) lookup(w uint32) int32 {
	for i := slotHash(w, t.mask); ; i = (i + 1) & t.mask {
		if t.ids[i] < 0 {
			return -1
		}
		if t.keys[i] == w {
			return t.ids[i]
		}
	}
}

// insert adds a word known to be absent.
func (t *slotTable) insert(w uint32, id int32) {
	if t.n >= len(t.ids)*3/4 {
		t.grow()
	}
	i := slotHash(w, t.mask)
	for t.ids[i] >= 0 {
		i = (i + 1) & t.mask
	}
	t.keys[i], t.ids[i] = w, id
	t.n++
}

func (t *slotTable) grow() {
	oldKeys, oldIDs := t.keys, t.ids
	size := len(oldIDs) * 2
	t.keys = make([]uint32, size)
	t.ids = make([]int32, size)
	t.mask = uint32(size - 1)
	for i := range t.ids {
		t.ids[i] = -1
	}
	for i, id := range oldIDs {
		if id < 0 {
			continue
		}
		w := oldKeys[i]
		j := slotHash(w, t.mask)
		for t.ids[j] >= 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j], t.ids[j] = w, id
	}
}

// DeltaBuilder is the speculative pass: it implements trace.Sink and
// trace.BatchSink, validating events exactly as the analyzer does (with
// absolute indices, so errors match a chained run's) and compiling them
// into a ShardDelta. It holds no levels and no entry state, so any number
// of builders can run concurrently over different shards of one trace.
//
// On a validation error the builder keeps the records for every event
// before the bad one; Delta still returns that prefix, which the
// speculative driver applies before reporting the error so failures
// surface in the same order a chained run reports them.
type DeltaBuilder struct {
	cfg Config
	d   *ShardDelta

	regSlot [isa.NumRegs]int32
	memSlot *slotTable

	srcBuf []isa.Reg
}

// NewDeltaBuilder starts a speculative pass for a shard whose first event
// sits at absolute trace position startEvent.
func NewDeltaBuilder(cfg Config, startEvent uint64) *DeltaBuilder {
	b := &DeltaBuilder{
		cfg: cfg.Clone(),
		d: &ShardDelta{
			Sig:        buildSig(&cfg),
			StartEvent: startEvent,
		},
		memSlot: newSlotTable(),
	}
	for i := range b.regSlot {
		b.regSlot[i] = -1
	}
	return b
}

// Grow pre-sizes the record array for n more events. Roughly four code
// words cover the common event (word0, two source slots, a destination);
// denser events just append past the hint. Shard drivers know the event
// count from the plan, and one up-front allocation keeps append from
// copying a multi-hundred-MB array through growslice as the shard builds.
func (b *DeltaBuilder) Grow(n int) {
	need := len(b.d.Code) + 4*n
	if need <= cap(b.d.Code) {
		return
	}
	grown := make([]uint32, len(b.d.Code), need)
	copy(grown, b.d.Code)
	b.d.Code = grown
}

// regSlotID resolves a register to its slot, allocating on first touch.
func (b *DeltaBuilder) regSlotID(r isa.Reg) uint32 {
	if id := b.regSlot[r]; id >= 0 {
		return uint32(id)
	}
	id := int32(len(b.d.Locs))
	b.regSlot[r] = id
	b.d.Locs = append(b.d.Locs, uint32(r))
	return uint32(id)
}

// memSlotID resolves a memory word to its slot, allocating on first touch.
func (b *DeltaBuilder) memSlotID(w uint32) uint32 {
	if id := b.memSlot.lookup(w); id >= 0 {
		return uint32(id)
	}
	id := int32(len(b.d.Locs))
	b.memSlot.insert(w, id)
	b.d.Locs = append(b.d.Locs, w|deltaMemLoc)
	return uint32(id)
}

// Event implements trace.Sink.
func (b *DeltaBuilder) Event(e *trace.Event) error {
	return b.build(e)
}

// Events implements trace.BatchSink.
func (b *DeltaBuilder) Events(batch []trace.Event) error {
	for i := range batch {
		if err := b.build(&batch[i]); err != nil {
			return err
		}
	}
	return nil
}

// build compiles one event into the record stream. The dispatch mirrors
// Analyzer.event; the slot references are emitted in exactly the order the
// analyzer touches the corresponding live-well locations, so ApplyDelta's
// replay is operation-for-operation identical.
func (b *DeltaBuilder) build(e *trace.Event) error {
	seq := b.d.StartEvent + b.d.Events
	if verr := validateEvent(e, seq); verr != nil {
		return verr
	}
	d := b.d
	d.Events++

	op := e.Ins.Op
	info := op.Info()
	d.ClassCounts[info.Class]++

	w0 := uint32(deltaKindSkip) | uint32(op)<<8
	switch {
	case op == isa.NOP:
		d.Code = append(d.Code, w0)
		return nil
	case e.IsSyscall():
		d.Syscalls++
		if b.cfg.Syscalls == SyscallOptimistic {
			d.Code = append(d.Code, w0)
			return nil
		}
		d.Code = append(d.Code, w0|deltaKindSyscall)
		return nil
	case info.IsJump:
		if dst, ok := e.Ins.Dest(); ok {
			// bindConstant does not skip $zero, so neither does the
			// record: the binding is observable through retirement
			// statistics.
			d.Code = append(d.Code, w0|deltaKindJump|1<<24, b.regSlotID(dst))
		} else {
			d.Code = append(d.Code, w0)
		}
		return nil
	case info.IsBranch:
		if b.cfg.Branches == BranchPerfect {
			d.Code = append(d.Code, w0)
			return nil
		}
		// Whether the branch mispredicts can depend on predictor state
		// flowing across the shard seam, so the record carries
		// everything the splice needs to decide: outcome, direction
		// sign, PC and the source slots that set the resolution level.
		w0 |= deltaKindBranch
		if e.Taken {
			w0 |= deltaFlagTaken
		}
		if e.Ins.Imm < 0 {
			w0 |= deltaFlagImmNeg
		}
		b.srcBuf = e.Ins.SourceRegs(b.srcBuf[:0])
		nsrc := uint32(0)
		at := len(d.Code)
		d.Code = append(d.Code, 0, e.PC)
		for _, r := range b.srcBuf {
			if r == isa.Zero {
				continue
			}
			d.Code = append(d.Code, b.regSlotID(r))
			nsrc++
		}
		d.Code[at] = w0 | nsrc<<16
		return nil
	}

	// Ordinary placement. Source and destination slots are emitted in
	// live-well touch order: registers before memory words, memory words
	// lo..hi. nsrc and ndst fit a byte: at most 3 register sources and —
	// MemSize being a byte — at most 65 words per access.
	w0 |= deltaKindPlace
	at := len(d.Code)
	d.Code = append(d.Code, 0)

	b.srcBuf = e.Ins.SourceRegs(b.srcBuf[:0])
	nsrc := uint32(0)
	for _, r := range b.srcBuf {
		if r == isa.Zero {
			continue
		}
		d.Code = append(d.Code, b.regSlotID(r))
		nsrc++
	}
	if info.IsLoad {
		lo, hi := wordRange(e.MemAddr, e.MemSize)
		for w := lo; w <= hi; w++ {
			d.Code = append(d.Code, b.memSlotID(w))
			nsrc++
		}
	}

	ndst := uint32(0)
	regTerm := uint32(0)
	if !b.cfg.RenameRegisters {
		regTerm = deltaStorageTerm
	}
	var dbuf [2]isa.Reg
	for _, dst := range regDests(&e.Ins, dbuf[:0]) {
		if dst == isa.Zero {
			continue
		}
		d.Code = append(d.Code, b.regSlotID(dst)|regTerm)
		ndst++
	}
	if info.IsStore {
		w0 |= deltaFlagIsStore
		memTerm := uint32(deltaStorageTerm)
		if e.Seg == trace.SegStack && b.cfg.RenameStack ||
			e.Seg != trace.SegStack && b.cfg.RenameData {
			memTerm = 0
		}
		lo, hi := wordRange(e.MemAddr, e.MemSize)
		for w := lo; w <= hi; w++ {
			d.Code = append(d.Code, b.memSlotID(w)|memTerm)
			ndst++
		}
	}
	d.Code[at] = w0 | nsrc<<16 | ndst<<24
	return nil
}

// Delta finalizes the build and returns the delta. After a build error it
// returns the prefix covering every event before the failing one.
func (b *DeltaBuilder) Delta() *ShardDelta {
	return b.d
}

// deltaSlot is the splice-time state of one pending location: the value
// record, its liveness, and whether the location is a memory word (which
// drives live-memory accounting).
type deltaSlot struct {
	val   value
	live  bool
	isMem bool
}

// ApplyDelta splices a speculative shard delta onto the analyzer: slots are
// materialized from the current live well, the record stream is replayed
// maintaining every level-dependent structure exactly as Analyzer.Event
// would, and the touched locations are written back. The analyzer must be
// positioned at the delta's StartEvent (i.e. it has consumed exactly the
// preceding events, via earlier shards or deltas).
//
// After a successful splice the analyzer's observable state — and every
// Result derived from it — is identical to having fed the shard's events
// through Event. (The live well's internal hash layout may differ, since
// written-back slots land in first-touch order rather than event order;
// that is invisible to placement, statistics and checkpoints.)
func (a *Analyzer) ApplyDelta(d *ShardDelta) (err error) {
	if a.finished {
		return errors.New("core: Event after Finish")
	}
	if a.deaths != nil {
		return errors.New("core: speculative splice is single-pass; a death schedule needs whole-trace knowledge")
	}
	if got := buildSig(&a.cfg); got != d.Sig {
		return fmt.Errorf("core: delta was built for config %+v, analyzer has %+v", d.Sig, got)
	}
	if a.instructions != d.StartEvent {
		return fmt.Errorf("core: delta starts at event %d, analyzer is at event %d", d.StartEvent, a.instructions)
	}
	defer func() {
		if v := recover(); v != nil {
			ev := a.instructions
			if ev > d.StartEvent {
				ev-- // the panic came from the record being replayed
			}
			err = &AnalysisError{Event: ev, Stage: "event", Cause: recoveredError(v)}
		}
	}()

	// Materialize the pending-read table against the real entry state.
	slots := make([]deltaSlot, len(d.Locs))
	for i, loc := range d.Locs {
		if loc&deltaMemLoc != 0 {
			v, live := a.well.memGet(loc &^ deltaMemLoc)
			slots[i] = deltaSlot{val: v, live: live, isMem: true}
		} else {
			slots[i] = deltaSlot{val: a.well.regs[loc], live: a.well.regLive[loc]}
		}
	}

	var rp deltaReplay
	rp.init(a, ^deltaStorageTerm, deltaStorageTerm)
	rp.slots = slots
	rp.curMem = a.well.memLen()
	if rerr := rp.run(d.Code); rerr != nil {
		return rerr
	}

	// Write back the touched locations. Slots that stayed dead (a branch
	// source whose branch never mispredicted) were never touched by the
	// replay and must not become live.
	for i := range slots {
		sl := &slots[i]
		if !sl.live {
			continue
		}
		if loc := d.Locs[i]; sl.isMem {
			a.well.memPut(loc&^deltaMemLoc, sl.val)
		} else {
			a.well.regs[loc] = sl.val
			a.well.regLive[loc] = true
		}
	}
	a.syscalls += d.Syscalls
	for c, n := range d.ClassCounts {
		a.classCounts[c] += n
	}
	return nil
}

// Concat appends next's records to d, remapping next's pending slots
// through d's touched-location table, and returns the combined delta:
// applying it is equivalent to applying d then next. Concatenation is
// associative — slot ids follow global first-touch order, so either
// grouping produces a structurally identical delta — which the
// testing/quick battery pins.
func (d *ShardDelta) Concat(next *ShardDelta) (*ShardDelta, error) {
	if d.Sig != next.Sig {
		return nil, fmt.Errorf("shard deltas built under different configs: %+v vs %+v", d.Sig, next.Sig)
	}
	if got := d.StartEvent + d.Events; next.StartEvent != got {
		return nil, fmt.Errorf("shard delta starts at event %d, predecessor ends at %d", next.StartEvent, got)
	}
	out := &ShardDelta{
		Sig:        d.Sig,
		StartEvent: d.StartEvent,
		Events:     d.Events + next.Events,
		Locs:       append(append([]uint32(nil), d.Locs...), make([]uint32, 0, len(next.Locs))...),
		Code:       append(append([]uint32(nil), d.Code...), make([]uint32, 0, len(next.Code))...),
		Syscalls:   d.Syscalls + next.Syscalls,
	}
	for c := range out.ClassCounts {
		out.ClassCounts[c] = d.ClassCounts[c] + next.ClassCounts[c]
	}

	index := make(map[uint32]uint32, len(d.Locs))
	for id, loc := range d.Locs {
		index[loc] = uint32(id)
	}
	remap := make([]uint32, len(next.Locs))
	for id, loc := range next.Locs {
		if prev, ok := index[loc]; ok {
			remap[id] = prev
			continue
		}
		remap[id] = uint32(len(out.Locs))
		index[loc] = remap[id]
		out.Locs = append(out.Locs, loc)
	}

	code := next.Code
	for i := 0; i < len(code); {
		w0 := code[i]
		i++
		out.Code = append(out.Code, w0)
		switch w0 & 7 {
		case deltaKindSkip, deltaKindSyscall:
		case deltaKindPlace:
			nsrc := int((w0 >> 16) & 0xff)
			ndst := int(w0 >> 24)
			if i+nsrc+ndst > len(code) {
				return nil, fmt.Errorf("shard delta: truncated record at word %d", i-1)
			}
			for _, s := range code[i : i+nsrc] {
				out.Code = append(out.Code, remap[s])
			}
			for _, dw := range code[i+nsrc : i+nsrc+ndst] {
				out.Code = append(out.Code, remap[dw&^deltaStorageTerm]|dw&deltaStorageTerm)
			}
			i += nsrc + ndst
		case deltaKindJump:
			if w0>>24 != 0 {
				if i >= len(code) {
					return nil, fmt.Errorf("shard delta: truncated record at word %d", i-1)
				}
				out.Code = append(out.Code, remap[code[i]])
				i++
			}
		case deltaKindBranch:
			nsrc := int((w0 >> 16) & 0xff)
			if i+1+nsrc > len(code) {
				return nil, fmt.Errorf("shard delta: truncated record at word %d", i-1)
			}
			out.Code = append(out.Code, code[i])
			for _, s := range code[i+1 : i+1+nsrc] {
				out.Code = append(out.Code, remap[s])
			}
			i += 1 + nsrc
		default:
			return nil, fmt.Errorf("shard delta: unknown record kind %d at word %d", w0&7, i-1)
		}
	}
	return out, nil
}
