package core

import (
	"errors"
	"fmt"

	"paragraph/internal/isa"
)

// Speculative sharding: the placement rule is inherently sequential — every
// level depends on the live values left by all preceding events — so
// chained sharding runs shard i+1's analyzer on shard i's exit checkpoint
// and the analyzer remains the wall. The observation that breaks the chain
// is that almost everything *except* the levels is entry-state independent:
// which storage locations an event touches, in which roles (source,
// destination, storage-dependency check), with what latency class, and
// whether the event is placed at all are functions of the event stream
// alone. A shard resolution (NewDeltaResolver) therefore runs with no entry
// state at all, resolving every location it touches to a dense shard-local
// slot id (the pending-read table: slot 0 is the first location the shard
// touches, and its entry state is unknown until splice time) and compiling
// the shard into a ShardDelta. The sequential fix-up (Analyzer.ApplyDelta)
// then splices a delta onto the real entry state: it materializes each slot
// from the predecessor's exit slots, replays the records on the one
// placement core, and writes the touched slots back. The result is exact by
// construction — the splice replays the same records Analyzer.Event would —
// so speculative N-shard analysis is deep-equal to the monolithic run,
// which the differential battery enforces. The records are policy-free, so
// one delta splices under any config.
//
// The record stream — ShardDelta.Code and DepSegment.Code alike — encodes
// one record per trace event:
//
//	word0: kind(3) | taken(1<<3) | immNeg(1<<4) | isStore(1<<5) |
//	       isStack(1<<6) | evict(1<<7) | op(8)<<8 | nsrc(8)<<16 | ndst(8)<<24
//	branch records:  word0, pc, src slots
//	place records:   word0, src slots, dest slots
//	jump records:    word0, dest slot
//	skip/syscall:    word0 only
//
// Every slot word is a plain slot id. A place record's destinations share
// one location class, because no store writes a register: registers
// unless isStore is set, stack words if isStack is set too, data words
// otherwise. A replay looks the class up once per record in a storage-term
// mask derived from its own renaming switches (see deltaTermMask) to decide
// whether the Ddest+1 term applies. Every event emits a record — even NOPs
// — because window displacement, the storage profile and the governor
// cadence are per-event.
//
// Only an analyzer's own records carry the evict flag: a two-pass analysis
// appends to the record of the event at which memory values die a count
// and the slots to kill (see Analyzer.evictDead). Deltas and whole-trace
// segments never carry it.
const (
	deltaKindSkip    = 0 // NOP or destless jump
	deltaKindPlace   = 1 // ordinary placement (ALU, FP, load, store)
	deltaKindJump    = 2 // jump binding a return-address constant
	deltaKindBranch  = 3 // conditional branch
	deltaKindSyscall = 4 // syscall: a firewall under the conservative policy

	deltaFlagTaken   = 1 << 3
	deltaFlagImmNeg  = 1 << 4
	deltaFlagIsStore = 1 << 5
	deltaFlagIsStack = 1 << 6
	deltaFlagEvict   = 1 << 7

	// deltaMemLoc marks a memory-word location key in ShardDelta.Locs
	// (word addresses are byte addresses >> 2, so they fit in 30 bits).
	deltaMemLoc = uint32(1) << 31
)

// Destination classes, as word0's (isStack, isStore) bits shifted down:
// the bit positions of a storage-term mask.
const (
	deltaClassReg   = 0
	deltaClassData  = deltaFlagIsStore >> 5
	deltaClassStack = (deltaFlagIsStore | deltaFlagIsStack) >> 5
)

// deltaTermMask returns the destination classes whose storage dependences
// (the Ddest+1 term) apply under cfg's renaming switches.
func deltaTermMask(cfg *Config) uint32 {
	var m uint32
	if !cfg.RenameRegisters {
		m |= 1 << deltaClassReg
	}
	if !cfg.RenameData {
		m |= 1 << deltaClassData
	}
	if !cfg.RenameStack {
		m |= 1 << deltaClassStack
	}
	return m
}

// storageTerm reports whether the Ddest+1 term applies to a place record's
// destinations under termMask.
func storageTerm(termMask, w0 uint32) bool {
	return termMask>>((w0>>5)&3)&1 != 0
}

// ShardDelta is the relocatable output of a shard resolution: levels and
// liveness are expressed relative to the shard's unknown entry state, so
// the delta can be built with no predecessor and spliced onto any analyzer
// positioned at StartEvent, under any config. All fields are exported and
// gob-encode, so deltas cross process and machine boundaries like shard
// results do.
type ShardDelta struct {
	// StartEvent is the absolute trace position of the first event;
	// validation errors during the build already carry absolute indices.
	StartEvent uint64
	// Events is the number of records in Code.
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

// deltaSlot is the state of one storage location in a slot table: the
// live value bound to it and whether the location is a memory word (which
// drives live-memory accounting). A dead slot holds no value; the replay
// brings it to life at its first touch.
type deltaSlot struct {
	// level is the DDG level at which the value becomes available for use
	// by other computation (the paper's L).
	level int64
	// lastUse is the deepest base level of any consumer of the value,
	// initialized to the creating operation's base. The storage-dependency
	// term of the placement rule is lastUse+1 (the paper's Ddest+1).
	lastUse int64
	// uses counts consumers (the degree of sharing of the token).
	uses  uint32
	live  bool
	isMem bool
}

// ApplyDelta splices a speculative shard delta onto the analyzer: each
// pending location is materialized from the analyzer's slot, the record
// stream is replayed with the syscall firewall and storage-term mask of the
// analyzer's own config, so one delta splices under any config, and the
// live locations are written back, each one the analyzer never touched
// before getting a slot of its own. The analyzer must be positioned at the
// delta's StartEvent (i.e. it has consumed exactly the preceding events,
// via earlier shards or deltas).
//
// After a successful splice every Result derived from the analyzer is
// identical to having fed the shard's events through Event. A delta whose
// record count differs from its Events is refused after the replay, so the
// analyzer must then be discarded; ReadDelta's Validate catches that
// before any replay.
func (a *Analyzer) ApplyDelta(d *ShardDelta) (err error) {
	if a.finished {
		return errors.New("core: Event after Finish")
	}
	if a.deaths != nil {
		return errors.New("core: speculative splice is single-pass; a death schedule needs whole-trace knowledge")
	}
	if err := a.flush(); err != nil {
		return err
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
	r := a.resolver()
	slots := make([]deltaSlot, len(d.Locs))
	for i, loc := range d.Locs {
		if id, ok := r.lookup(loc); ok {
			slots[i] = a.slots[id]
		} else {
			slots[i] = deltaSlot{isMem: loc&deltaMemLoc != 0}
		}
	}
	if rerr := a.rp.run(d.Code, slots); rerr != nil {
		return rerr
	}
	if got := a.instructions - d.StartEvent; got != d.Events {
		return fmt.Errorf("core: delta holds %d records but declares %d events", got, d.Events)
	}

	// Write back the live locations. Slots that stayed dead (a branch
	// source whose branch never mispredicted) were never touched by the
	// replay and must not become live.
	for i := range slots {
		if slots[i].live {
			a.slots[a.slotOf(d.Locs[i])] = slots[i]
		}
	}
	r.start = a.instructions
	a.syscalls += d.Syscalls
	for c, n := range d.ClassCounts {
		a.classCounts[c] += n
	}
	return nil
}

// walkRecords walks a record stream, checking that every record is
// complete, has a known kind, carries no eviction, names a real operation
// and references only slots below nslots, and returns the record count.
func walkRecords(code []uint32, nslots int) (uint64, error) {
	var n uint64
	for i := 0; i < len(code); n++ {
		w0 := code[i]
		slots, end := i+1, i+1
		if w0&deltaFlagEvict != 0 {
			return n, fmt.Errorf("record at word %d carries an eviction", i)
		}
		switch w0 & 7 {
		case deltaKindSkip, deltaKindSyscall:
		case deltaKindPlace:
			end += int((w0>>16)&0xff) + int(w0>>24)
		case deltaKindJump:
			if w0>>24 != 0 {
				end++
			}
		case deltaKindBranch:
			slots++
			end = slots + int((w0>>16)&0xff)
		default:
			return n, fmt.Errorf("unknown record kind %d at word %d", w0&7, i)
		}
		if end > len(code) {
			return n, fmt.Errorf("truncated record at word %d", i)
		}
		if op := isa.Op(w0 >> 8); op >= isa.NumOps {
			return n, fmt.Errorf("record at word %d names operation %d of %d", i, op, isa.NumOps)
		}
		for j, s := range code[slots:end] {
			if s >= uint32(nslots) {
				return n, fmt.Errorf("record at word %d references slot %d of %d", slots+j, s, nslots)
			}
		}
		i = end
	}
	return n, nil
}

// Validate checks that a delta from an untrusted source is safe to splice:
// every record is complete and well-formed, every slot word addresses the
// pending-read table, register keys name real registers, and the record
// count matches Events.
func (d *ShardDelta) Validate() error {
	for id, loc := range d.Locs {
		if loc&deltaMemLoc == 0 && loc >= uint32(isa.NumRegs) {
			return fmt.Errorf("shard delta: slot %d names register %d of %d", id, loc, isa.NumRegs)
		}
	}
	n, err := walkRecords(d.Code, len(d.Locs))
	if err != nil {
		return fmt.Errorf("shard delta: %w", err)
	}
	if n != d.Events {
		return fmt.Errorf("shard delta: holds %d records but declares %d events", n, d.Events)
	}
	return nil
}
