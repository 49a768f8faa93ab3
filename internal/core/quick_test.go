package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// Property tests on the analyzer's internal data structures.

// TestQuickWordRange: the word range of any access covers exactly the bytes
// [addr, addr+size), is non-empty for size > 0, and spans at most
// ceil((size+3)/4) words.
func TestQuickWordRange(t *testing.T) {
	f := func(addr uint32, sizeSel uint8) bool {
		sizes := []uint8{1, 2, 4, 8}
		size := sizes[int(sizeSel)%len(sizes)]
		if addr > 0xffffff00 {
			addr = 0xffffff00 // validation rejects an access that wraps
		}
		lo, hi := wordRange(addr, size)
		if lo > hi {
			return false
		}
		// First and last byte must fall inside the range.
		if addr>>2 != lo {
			return false
		}
		if (addr+uint32(size)-1)>>2 != hi {
			return false
		}
		return hi-lo <= uint32(size+3)/4
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	// Zero size yields the canonical empty range.
	if lo, hi := wordRange(123, 0); lo <= hi {
		t.Errorf("zero-size range not empty: [%d, %d]", lo, hi)
	}
}

// TestQuickFUSchedule: for any sequence of (base, top) requests, the chosen
// base never precedes the data-ready base, and no level ever holds more
// than the configured number of units.
func TestQuickFUSchedule(t *testing.T) {
	f := func(seed int64, unitSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		units := 1 + int(unitSel)%4
		fu := newFUSchedule(units)
		occupancy := make(map[int64]int)
		base := int64(-1)
		for i := 0; i < 200; i++ {
			// Data-ready bases drift forward with occasional jumps
			// back, as real source levels do.
			req := base + int64(rng.Intn(5)) - 2
			if req < -1 {
				req = -1
			}
			top := int64(1 + rng.Intn(12))
			got := fu.schedule(req, top)
			if got < req {
				return false
			}
			for l := got + 1; l <= got+top; l++ {
				occupancy[l]++
				if occupancy[l] > units {
					return false
				}
			}
			if got > base {
				base = got
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(37))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLiveWellSingleAssignment: after any sequence of register binds,
// the live well the analyzer's tables hold returns exactly the most recent
// value of each register, and a register first read after a firewall is
// pre-existing at the current floor. Registers are not renamed, so each
// rebind waits one level for the last and the n-th bind of a register
// lands at level n-1.
func TestQuickLiveWellSingleAssignment(t *testing.T) {
	f := func(ops []uint16) bool {
		a := NewAnalyzer(Config{Syscalls: SyscallConservative})
		binds := make(map[isa.Reg]int64)
		for _, op := range ops {
			r := isa.Reg(1 + op%63) // int + FP registers but $zero
			e := evAddi(r, isa.Zero, int32(op))
			if a.Event(&e) != nil {
				return false
			}
			binds[r]++
		}
		untouched := isa.Zero
		for r := isa.Reg(1); r < 64 && untouched == isa.Zero; r++ {
			if binds[r] == 0 {
				untouched = r
			}
		}
		sys, read := evSyscall(), evAdd(isa.Zero, untouched, untouched)
		if a.Event(&sys) != nil || untouched != isa.Zero && a.Event(&read) != nil {
			return false
		}
		st := a.Snapshot().state()
		for r := isa.Reg(1); r < 64; r++ {
			live, v := st.Well.RegLive[r], st.Well.Regs[r]
			switch {
			case binds[r] > 0:
				if !live || v.Level != binds[r]-1 {
					return false
				}
			case r == untouched:
				if !live || v.Level != st.HighestLevel-1 || st.Well.PreLevel != st.HighestLevel-1 {
					return false
				}
			case live:
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeathScheduleConservation: every store creates a value that
// eventually dies (by overwrite or at trace end), so the schedule's death
// count must equal the store count exactly.
func TestQuickDeathScheduleConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var events []trace.Event
		stores := 0
		for i := 0; i < 100; i++ {
			addr := uint32(0x10000000 + 4*rng.Intn(8))
			if rng.Intn(2) == 0 {
				events = append(events, evStore(isa.T0, addr, trace.SegData))
				stores++
			} else {
				events = append(events, evLoad(isa.T1, addr, trace.SegData))
			}
		}
		tr, err := trace.NewReader(storeTrace(t, events))
		if err != nil {
			t.Fatal(err)
		}
		ds, err := ComputeDeathSchedule(tr)
		if err != nil {
			t.Fatal(err)
		}
		// Deaths = overwritten values + final values = total stores...
		// except stores never followed by another access still count,
		// which the final flush covers. Loads of untouched words add a
		// pre-existing value that also dies.
		preexisting := 0
		seenStore := map[uint32]bool{}
		for idx := range events {
			e := &events[idx]
			info := e.Ins.Op.Info()
			lo, _ := wordRange(e.MemAddr, e.MemSize)
			if info.IsLoad && !seenStore[lo] {
				preexisting++
				seenStore[lo] = true // only the first pre-store load creates it
			}
			if info.IsStore {
				seenStore[lo] = true
			}
		}
		return int(ds.Values()) == stores+preexisting
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaSlotSize: a slot holds a value's level, last use and use count
// and its two flags in 24 bytes, the layout budget.LiveWellEntryBytes is
// calibrated against (BenchmarkLiveWellCalibration).
func TestDeltaSlotSize(t *testing.T) {
	if size := unsafe.Sizeof(deltaSlot{}); size != 24 {
		t.Fatalf("a slot takes %d bytes, want 24", size)
	}
}
