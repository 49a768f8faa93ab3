package core

import (
	"paragraph/internal/isa"
)

// value is one live-well record: the state of the value currently bound to a
// storage location.
type value struct {
	// level is the DDG level at which the value becomes available for
	// use by other computation (the paper's L).
	level int64
	// lastUse is the deepest base level of any consumer of the value,
	// initialized to the creation level. The storage-dependency term of
	// the placement rule is lastUse+1 (the paper's Ddest+1).
	lastUse int64
	// uses counts consumers (the degree of sharing of the token).
	uses uint32
}

// liveWell is the hash table of live values of Section 3.2. Register-space
// locations use a dense array; memory words use the open-addressed word
// table the resolver's slot map also uses (memTable), and callers read and
// write mem directly. A value becomes dead when its location is
// overwritten, at which point the record is recycled — the paper's
// single-pass forward cleanup strategy ("a value has become dead after its
// storage location is reused").
type liveWell struct {
	regs    [isa.NumRegs]value
	regLive [isa.NumRegs]bool
	mem     memTable[value]

	// preLevel is where locations that existed before the program began
	// (pre-initialized registers, DATA-segment words) are considered to
	// have been created; it tracks highestLevel-1 so pre-existing values
	// never delay any computation (the paper's first special case).
	preLevel int64
}

func newLiveWell() *liveWell {
	return &liveWell{}
}

// preExisting returns a fresh record for a location touched before ever
// being written during the analyzed trace.
func (w *liveWell) preExisting() value {
	return value{level: w.preLevel, lastUse: w.preLevel}
}

// reg returns the record for a register, creating a pre-existing-value
// record on first touch. The returned pointer is stable and mutable.
func (w *liveWell) reg(r isa.Reg) *value {
	if !w.regLive[r] {
		w.regs[r] = w.preExisting()
		w.regLive[r] = true
	}
	return &w.regs[r]
}

// regIfLive returns the register record only if the register currently
// holds a live (previously written or read) value.
func (w *liveWell) regIfLive(r isa.Reg) (value, bool) {
	if !w.regLive[r] {
		return value{}, false
	}
	return w.regs[r], true
}

// setReg binds a new value record to a register, returning the previous
// record and whether one was live (for lifetime/sharing accounting).
func (w *liveWell) setReg(r isa.Reg, v value) (value, bool) {
	old, wasLive := w.regs[r], w.regLive[r]
	w.regs[r] = v
	w.regLive[r] = true
	return old, wasLive
}

// memRead returns the record for a memory word for use as a source,
// creating a pre-existing record on first touch (DATA-segment values and
// untouched stack/heap read before any traced write).
func (w *liveWell) memRead(word uint32) value {
	i, ok := w.mem.find(word)
	if ok {
		return w.mem.vals[i]
	}
	v := w.preExisting()
	w.mem.insertAt(i, word, v)
	return v
}

// forEachLive visits every live record; used to flush lifetime/sharing
// statistics at the end of the trace.
func (w *liveWell) forEachLive(fn func(v value)) {
	for r := range w.regs {
		if w.regLive[r] {
			fn(w.regs[r])
		}
	}
	w.mem.forEach(func(_ uint32, v value) {
		fn(v)
	})
}
