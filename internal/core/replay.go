package core

import (
	"fmt"

	"paragraph/internal/budget"
	"paragraph/internal/isa"
)

// deltaReplay is the record-replay engine shared by the speculative splice
// (Analyzer.ApplyDelta) and the per-config Scheduler: it walks a compiled
// record stream (ShardDelta.Code / DepSegment.Code, one encoding — see
// delta.go) and maintains every level-dependent structure of the analyzer
// — firewall floor, window, functional units, predictor, governor,
// statistics — with pure array indexing against a dense slot table instead
// of live-well hashing. The replay performs the same placements in the
// same order Analyzer.Event would, which is what makes both callers exact
// by construction.
//
// Slot state (slots, curMem) belongs to the caller: ApplyDelta materializes
// it from the live well and writes it back per delta, the Scheduler keeps it
// across segments for the whole trace.
//
// The records are policy-free, so init derives the policy half of the
// placement rule from the analyzer's config: firewall is the syscall
// policy, and termMask holds the destination classes whose storage term
// (Ddest+1) applies, looked up once per place record (storageTerm).
type deltaReplay struct {
	a        *Analyzer
	slots    []deltaSlot
	curMem   int
	termMask uint32
	firewall bool
	// lat is padded to the full width of the record's 8-bit opcode field
	// so the (w0>>8)&0xff index provably stays in bounds — the replay loop
	// pays no bounds check on the latency lookup.
	lat [256]int64

	// Parallelism-profile updates are batched in a small scratch of
	// (level, count) runs and flushed once per run() call instead of once
	// per placed record. LevelHistogram's final state is a pure function
	// of the multiset of (level, n) additions — counts are linear and the
	// bucket width depends only on the deepest level ever added — so the
	// batching is exact, not approximate.
	histLevel [histScratch]int64
	histCount [histScratch]uint64
	histLen   int
}

// histScratch sizes the profile batch: large enough that consecutive
// placements at alternating levels still amortize the histogram's
// rescale-check, small enough to live in the replay struct.
const histScratch = 64

// init binds the replay to an analyzer, derives the syscall firewall and
// storage-term mask from its config, and resolves the latency table once;
// latencies come from the analyzer's config, not the record stream, so ops
// resolve through the same tables a sequential run uses.
func (r *deltaReplay) init(a *Analyzer) {
	r.a = a
	r.termMask = deltaTermMask(&a.cfg)
	r.firewall = a.cfg.Syscalls != SyscallOptimistic
	for op := isa.Op(0); op < isa.NumOps; op++ {
		r.lat[op] = a.cfg.latency(op)
	}
}

// hist batches one placement into the profile scratch (see deltaReplay).
func (r *deltaReplay) hist(ldest int64) {
	if r.histLen > 0 && r.histLevel[r.histLen-1] == ldest {
		r.histCount[r.histLen-1]++
		return
	}
	if r.histLen == histScratch {
		r.flushHist()
	}
	r.histLevel[r.histLen] = ldest
	r.histCount[r.histLen] = 1
	r.histLen++
}

// flushHist drains the batched profile counts into the histogram.
func (r *deltaReplay) flushHist() {
	for i := 0; i < r.histLen; i++ {
		r.a.profile.Add(r.histLevel[i], r.histCount[i])
	}
	r.histLen = 0
}

// syncBack writes the loop-local replay state back to the analyzer. run()
// calls it on every exit and before handing control to the governor, which
// reads the analyzer directly. preLevel tracks highestLevel-1 by invariant
// (raiseFloor, init and checkpoint restore all maintain it), so the
// unconditional write preserves it.
func (r *deltaReplay) syncBack(seq uint64, curMem int, hl int64, ops uint64, deepest int64, anyOps bool) {
	a := r.a
	a.instructions = seq
	r.curMem = curMem
	a.highestLevel = hl
	a.well.preLevel = hl - 1
	a.ops = ops
	a.deepest = deepest
	a.anyOps = anyOps
}

// run replays one record stream. Records must be complete (segment cuts
// happen at record boundaries); slot references must resolve within
// r.slots. Batched statistics are flushed before returning on every path.
//
// The per-record state — event counter, firewall floor, live-memory count,
// op statistics — lives in plain locals for the duration of the walk and is
// written back through syncBack on exit. This is the analyzer's hottest
// loop (every config in a sweep runs it over the whole trace) and keeping
// the state addressable on the Analyzer would defeat register allocation;
// no closure may capture these locals for the same reason.
func (r *deltaReplay) run(code []uint32) error {
	defer r.flushHist()
	a := r.a
	slots := r.slots

	seq := a.instructions
	curMem := r.curMem
	hl := a.highestLevel
	ops := a.ops
	deepest := a.deepest
	anyOps := a.anyOps
	win := &a.window
	winSize := uint64(a.cfg.WindowSize)
	profileOn := a.profile != nil
	retireOn := a.cfg.Lifetimes || a.cfg.Sharing
	storage := a.storage
	fu := a.fu
	pred := a.pred
	gov := a.gov
	tailWork := storage != nil || gov != nil
	termMask := r.termMask
	firewall := r.firewall

	for i := 0; i < len(code); {
		w0 := code[i]
		i++
		rec := seq
		seq++
		if winSize > 0 && rec >= winSize {
			// Inlined windowState.displace + raiseFloor.
			cutoff := rec - winSize
			for win.head < win.tail {
				e := &win.buf[win.head&uint64(len(win.buf)-1)]
				if e.seq > cutoff {
					break
				}
				if lv := e.level + 1; lv > hl {
					hl = lv
				}
				win.head++
			}
		}
		switch w0 & 7 {
		case deltaKindSkip:
			// Window, storage profile and governor cadence only.

		case deltaKindPlace:
			top := r.lat[(w0>>8)&0xff]
			nsrc := int((w0 >> 16) & 0xff)
			ndst := int(w0 >> 24)

			var ldest int64
			if nsrc <= 2 && ndst == 1 {
				// Unrolled fast path: at most two sources, one
				// destination — every ALU op, load and store the ISA
				// produces. Source slots stay in registers across the
				// base computation and the use writeback, instead of
				// being re-indexed by a second loop.
				_ = code[i+nsrc] // one bounds check for the whole record
				pre := hl - 1
				base := pre
				var s0, s1 *deltaSlot
				if nsrc > 0 {
					s0 = &slots[code[i]]
					if !s0.live {
						s0.val = value{level: pre, lastUse: pre}
						s0.live = true
						if s0.isMem {
							curMem++
						}
					}
					if s0.val.level > base {
						base = s0.val.level
					}
					if nsrc == 2 {
						s1 = &slots[code[i+1]]
						if !s1.live {
							s1.val = value{level: pre, lastUse: pre}
							s1.live = true
							if s1.isMem {
								curMem++
							}
						}
						if s1.val.level > base {
							base = s1.val.level
						}
					}
				}
				d := &slots[code[i+nsrc]]
				i += nsrc + 1
				if storageTerm(termMask, w0) && d.live && d.val.lastUse+1 > base {
					base = d.val.lastUse + 1
				}
				if fu != nil {
					base = fu.schedule(base, top)
				}
				ldest = base + top
				if s0 != nil {
					s0.val.uses++
					if base > s0.val.lastUse {
						s0.val.lastUse = base
					}
					if s1 != nil {
						s1.val.uses++
						if base > s1.val.lastUse {
							s1.val.lastUse = base
						}
					}
				}
				if d.live {
					if retireOn {
						a.retire(d.val)
					}
				} else {
					d.live = true
					if d.isMem {
						curMem++
					}
				}
				d.val = value{level: ldest, lastUse: base}
			} else {
				// General path: multi-destination ops (HI/LO writers)
				// and degenerate shapes.
				srcs := code[i : i+nsrc]
				dsts := code[i+nsrc : i+nsrc+ndst]
				i += nsrc + ndst

				base := hl - 1
				for _, s := range srcs {
					sl := &slots[s]
					if !sl.live {
						sl.val = value{level: hl - 1, lastUse: hl - 1}
						sl.live = true
						if sl.isMem {
							curMem++
						}
					}
					if sl.val.level > base {
						base = sl.val.level
					}
				}
				if storageTerm(termMask, w0) {
					for _, dw := range dsts {
						sl := &slots[dw]
						if sl.live && sl.val.lastUse+1 > base {
							base = sl.val.lastUse + 1
						}
					}
				}
				if fu != nil {
					base = fu.schedule(base, top)
				}
				ldest = base + top
				for _, s := range srcs {
					sl := &slots[s]
					sl.val.uses++
					if base > sl.val.lastUse {
						sl.val.lastUse = base
					}
				}
				newVal := value{level: ldest, lastUse: base}
				for _, dw := range dsts {
					sl := &slots[dw]
					if sl.live {
						if retireOn {
							a.retire(sl.val)
						}
					} else {
						sl.live = true
						if sl.isMem {
							curMem++
						}
					}
					sl.val = newVal
				}
			}
			if w0&deltaFlagIsStore != 0 && curMem > a.maxLiveMem {
				a.maxLiveMem = curMem
			}
			// Inlined placed().
			ops++
			if !anyOps || ldest > deepest {
				deepest = ldest
				anyOps = true
			}
			if profileOn {
				r.hist(ldest)
			}
			if winSize > 0 {
				// Inlined windowState.push.
				if int(win.tail-win.head) == len(win.buf) {
					win.grow()
				}
				win.buf[win.tail&uint64(len(win.buf)-1)] = winEntry{seq: rec, level: ldest}
				win.tail++
			}

		case deltaKindJump:
			if w0>>24 != 0 {
				sl := &slots[code[i]]
				i++
				if sl.live {
					if retireOn {
						a.retire(sl.val)
					}
				} else {
					sl.live = true
				}
				sl.val = value{level: hl - 1, lastUse: hl - 1}
			}

		case deltaKindBranch:
			// Under BranchPerfect (pred == nil) the record is consumed but
			// constrains nothing and touches no slots — exactly what
			// Analyzer.event does with the branch. The Resolver emits full
			// branch records regardless of branch policy so one resolution
			// serves every policy.
			nsrc := int((w0 >> 16) & 0xff)
			if pred == nil {
				i += 1 + nsrc
				break
			}
			pc := code[i]
			srcs := code[i+1 : i+1+nsrc]
			i += 1 + nsrc
			if pred.mispredicted(pc, w0&deltaFlagImmNeg != 0, w0&deltaFlagTaken != 0) {
				base := hl - 1
				for _, s := range srcs {
					sl := &slots[s]
					if !sl.live {
						sl.val = value{level: hl - 1, lastUse: hl - 1}
						sl.live = true
					}
					if sl.val.level > base {
						base = sl.val.level
					}
				}
				if lv := base + r.lat[(w0>>8)&0xff] + 1; lv > hl {
					hl = lv
				}
			}

		case deltaKindSyscall:
			if !firewall {
				break // optimistic: the syscall constrains nothing
			}
			base := hl - 1
			if anyOps && deepest > base {
				base = deepest
			}
			ldest := base + r.lat[isa.SYSCALL]
			ops++
			if !anyOps || ldest > deepest {
				deepest = ldest
				anyOps = true
			}
			if profileOn {
				r.hist(ldest)
			}
			if winSize > 0 {
				win.push(rec, ldest)
			}
			if ldest+1 > hl {
				hl = ldest + 1
			}

		default:
			r.syncBack(seq, curMem, hl, ops, deepest, anyOps)
			return fmt.Errorf("core: corrupt delta: unknown record kind %d at event %d", w0&7, rec)
		}

		if tailWork {
			if storage != nil {
				storage.Add(int64(rec), uint64(curMem))
			}
			if gov != nil && seq%budget.CheckEvery == 0 {
				r.syncBack(seq, curMem, hl, ops, deepest, anyOps)
				if gerr := a.governBudgetAt(curMem); gerr != nil {
					return gerr
				}
				// The degrade policy may have tightened the window.
				winSize = uint64(a.cfg.WindowSize)
			}
		}
	}
	r.syncBack(seq, curMem, hl, ops, deepest, anyOps)
	return nil
}
