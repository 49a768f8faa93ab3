package core

import (
	"fmt"
	"math"

	"paragraph/internal/budget"
	"paragraph/internal/isa"
)

// deltaReplay is the placement core: the only code that applies the
// placement rule, in two loops — runUnlimited for the paper's unlimited
// configs and run's general loop for every other. It walks a compiled
// record stream (see delta.go) and
// maintains every level-dependent structure of the analyzer — firewall
// floor, window, functional units, predictor, governor, statistics — with
// pure array indexing against a dense slot table. Every engine feeds it:
// an Analyzer replays the records its own Resolver compiles from its
// events, a Scheduler replays a whole-trace resolution's segments, and
// ApplyDelta replays a shard resolution's delta over slots materialized
// from the analyzer's.
//
// The records are policy-free, so init derives the policy half of the
// placement rule from the analyzer's config: firewall is the syscall
// policy, and termMask holds the destination classes whose storage term
// (Ddest+1) applies, looked up once per place record (storageTerm).
type deltaReplay struct {
	a        *Analyzer
	termMask uint32
	firewall bool
	// unlimited selects runUnlimited: the config has no window, no
	// functional-unit limit, perfect branches, no lifetimes or sharing, no
	// storage profile and no budget. init derives it from the config alone;
	// a death schedule, which can arrive later, sends run the general way.
	unlimited bool
	// lat is padded to the full width of the record's 8-bit opcode field
	// so the (w0>>8)&0xff index provably stays in bounds — the replay loop
	// pays no bounds check on the latency lookup.
	lat [256]int64
}

// init binds the replay to an analyzer, derives the syscall firewall, the
// storage-term mask and the loop from its config, and resolves the latency
// table once; latencies come from the analyzer's config, not the record
// stream.
func (r *deltaReplay) init(a *Analyzer) {
	r.a = a
	c := &a.cfg
	r.termMask = deltaTermMask(c)
	r.firewall = c.Syscalls != SyscallOptimistic
	r.unlimited = c.WindowSize == 0 && c.FunctionalUnits == 0 && c.Branches == BranchPerfect &&
		!c.Lifetimes && !c.Sharing && !c.StorageProfile && c.MemBudget == 0
	for op := isa.Op(0); op < isa.NumOps; op++ {
		r.lat[op] = c.latency(op)
	}
}

// syncBack writes the loop-local replay state back to the analyzer. run()
// calls it on every exit and before handing control to the governor, which
// reads the analyzer directly.
func (r *deltaReplay) syncBack(seq uint64, curMem int, hl int64, ops uint64, deepest int64, anyOps bool) {
	a := r.a
	a.instructions = seq
	a.curMem = curMem
	a.highestLevel = hl
	a.ops = ops
	a.deepest = deepest
	a.anyOps = anyOps
}

// run replays one record stream over slots. Records must be complete
// (segment cuts happen at record boundaries); slot references must resolve
// within slots. An unlimited config replays in runUnlimited instead; every
// other config takes the general loop below.
//
// The per-record state — event counter, firewall floor, live-memory count,
// op statistics — lives in plain locals for the duration of the walk and is
// written back through syncBack on exit. This is the analyzer's hottest
// loop and keeping the state addressable on the Analyzer would defeat
// register allocation; no closure may capture these locals for the same
// reason.
//
// A slot springs to life at its first touch: a source read before any write
// is the paper's pre-existing value, created at highestLevel-1 so it never
// delays any computation.
func (r *deltaReplay) run(code []uint32, slots []deltaSlot) error {
	a := r.a
	if r.unlimited && a.deaths == nil {
		return r.runUnlimited(code, slots)
	}

	seq := a.instructions
	curMem := a.curMem
	hl := a.highestLevel
	ops := a.ops
	deepest := a.deepest
	anyOps := a.anyOps
	win := &a.window
	winSize := uint64(a.cfg.WindowSize)
	profile := a.profile
	retireOn := a.cfg.Lifetimes || a.cfg.Sharing
	storage := a.storage
	fu := a.fu
	pred := a.pred
	gov := a.gov
	evicts := a.deaths != nil
	tailWork := storage != nil || gov != nil || evicts
	termMask := r.termMask
	firewall := r.firewall

	for i := 0; i < len(code); {
		w0 := code[i]
		i++
		rec := seq
		seq++
		if winSize > 0 && rec >= winSize {
			// Instructions displaced by this one carry a firewall
			// (Section 3.2, Figure 6): nothing later may be placed at or
			// above their levels.
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
			// Ldest = MAX(Lsrc..., highestLevel-1, Ddest+1) + top. The
			// operation executes in levels base+1 .. base+top.
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
						s0.level, s0.lastUse, s0.live = pre, pre, true
						if s0.isMem {
							curMem++
						}
					}
					if s0.level > base {
						base = s0.level
					}
					if nsrc == 2 {
						s1 = &slots[code[i+1]]
						if !s1.live {
							s1.level, s1.lastUse, s1.live = pre, pre, true
							if s1.isMem {
								curMem++
							}
						}
						if s1.level > base {
							base = s1.level
						}
					}
				}
				d := &slots[code[i+nsrc]]
				i += nsrc + 1
				if storageTerm(termMask, w0) && d.live && d.lastUse+1 > base {
					base = d.lastUse + 1
				}
				if fu != nil {
					base = fu.schedule(base, top)
				}
				ldest = base + top
				// The sources are consumed at the base level.
				if s0 != nil {
					s0.uses++
					if base > s0.lastUse {
						s0.lastUse = base
					}
					if s1 != nil {
						s1.uses++
						if base > s1.lastUse {
							s1.lastUse = base
						}
					}
				}
				if d.live {
					if retireOn {
						a.retire(d)
					}
				} else {
					d.live = true
					if d.isMem {
						curMem++
					}
				}
				// lastUse starts at the creating operation's base level: a
				// later overwrite must begin strictly after this operation
				// began (one level of WAW spacing).
				d.level, d.lastUse, d.uses = ldest, base, 0
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
						sl.level, sl.lastUse, sl.live = hl-1, hl-1, true
						if sl.isMem {
							curMem++
						}
					}
					if sl.level > base {
						base = sl.level
					}
				}
				if storageTerm(termMask, w0) {
					for _, dw := range dsts {
						sl := &slots[dw]
						if sl.live && sl.lastUse+1 > base {
							base = sl.lastUse + 1
						}
					}
				}
				if fu != nil {
					base = fu.schedule(base, top)
				}
				ldest = base + top
				for _, s := range srcs {
					sl := &slots[s]
					sl.uses++
					if base > sl.lastUse {
						sl.lastUse = base
					}
				}
				for _, dw := range dsts {
					sl := &slots[dw]
					if sl.live {
						if retireOn {
							a.retire(sl)
						}
					} else {
						sl.live = true
						if sl.isMem {
							curMem++
						}
					}
					sl.level, sl.lastUse, sl.uses = ldest, base, 0
				}
			}
			if w0&deltaFlagIsStore != 0 && curMem > a.maxLiveMem {
				a.maxLiveMem = curMem
			}
			ops++
			if !anyOps || ldest > deepest {
				deepest = ldest
				anyOps = true
			}
			if profile != nil {
				profile.Add(ldest, 1)
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
			// Calls produce a return-address value that later code saves
			// and restores. The return address is a static constant, so
			// the value is bound as if it pre-existed: available
			// immediately, delaying nothing.
			if w0>>24 != 0 {
				sl := &slots[code[i]]
				i++
				if sl.live {
					if retireOn {
						a.retire(sl)
					}
				} else {
					sl.live = true
				}
				sl.level, sl.lastUse, sl.uses = hl-1, hl-1, 0
			}

		case deltaKindBranch:
			// Control instructions are never placed, but under an
			// imperfect branch model a misprediction firewalls the DDG one
			// step after the branch's deepest source. Under BranchPerfect
			// (pred == nil) the record is consumed but constrains nothing
			// and touches no slots. The resolver emits full branch records
			// regardless of branch policy so one resolution serves every
			// policy.
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
						sl.level, sl.lastUse, sl.live = hl-1, hl-1, true
					}
					if sl.level > base {
						base = sl.level
					}
				}
				if lv := base + r.lat[(w0>>8)&0xff] + 1; lv > hl {
					hl = lv
				}
			}

		case deltaKindSyscall:
			// The conservative policy places a firewall immediately after
			// the deepest computation yet seen, the call itself just below
			// it (Section 3.2's second special case).
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
			if profile != nil {
				profile.Add(ldest, 1)
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
			if evicts && w0&deltaFlagEvict != 0 {
				// Two-pass eviction: the memory words whose values died
				// at this event leave the live well.
				n := int(code[i])
				for _, s := range code[i+1 : i+1+n] {
					sl := &slots[s]
					if sl.live {
						if retireOn {
							a.retire(sl)
						}
						curMem--
					}
					*sl = deltaSlot{isMem: true}
				}
				i += 1 + n
			}
			if storage != nil {
				storage.Add(int64(rec), uint64(curMem))
			}
			if gov != nil && seq%budget.CheckEvery == 0 {
				r.syncBack(seq, curMem, hl, ops, deepest, anyOps)
				if gerr := a.governBudget(); gerr != nil {
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

// noOps is runUnlimited's deepest level before the first operation: below
// every level, so the loop tracks the deepest level without an anyOps flag.
const noOps = math.MinInt64

// runUnlimited is run for a config with no window, no functional-unit
// limit, perfect branches, no lifetimes or sharing, no storage profile, no
// budget and no death schedule: the configuration of the paper's Tables 3
// and 4 and Figure 7. It applies the same placement rule to the same state
// — levels, last uses, use counts, liveness and the live-memory counts
// move exactly as in run — but its body holds none of the code those
// features need, and calls nothing but the profile add. Leaving that code
// out, not branching around it, is the point: feature code in the body
// raises the loop's register pressure whether or not it runs.
func (r *deltaReplay) runUnlimited(code []uint32, slots []deltaSlot) error {
	a := r.a

	seq := a.instructions
	curMem := a.curMem
	hl := a.highestLevel
	ops := a.ops
	deepest := a.deepest
	if !a.anyOps {
		deepest = noOps
	}
	profile := a.profile
	lat := &r.lat
	corrupt := false

	i := 0
loop:
	for i < len(code) {
		w0 := code[i]
		i++
		seq++
		var ldest int64
		switch w0 & 7 {
		case deltaKindSkip:
			continue

		case deltaKindPlace:
			top := lat[(w0>>8)&0xff]
			nsrc := int((w0 >> 16) & 0xff)
			ndst := int(w0 >> 24)
			if nsrc <= 2 && ndst == 1 {
				_ = code[i+nsrc]
				pre := hl - 1
				base := pre
				var s0, s1 *deltaSlot
				if nsrc > 0 {
					s0 = &slots[code[i]]
					if !s0.live {
						s0.level, s0.lastUse, s0.live = pre, pre, true
						if s0.isMem {
							curMem++
						}
					}
					if s0.level > base {
						base = s0.level
					}
					if nsrc == 2 {
						s1 = &slots[code[i+1]]
						if !s1.live {
							s1.level, s1.lastUse, s1.live = pre, pre, true
							if s1.isMem {
								curMem++
							}
						}
						if s1.level > base {
							base = s1.level
						}
					}
				}
				d := &slots[code[i+nsrc]]
				i += nsrc + 1
				if storageTerm(r.termMask, w0) && d.live && d.lastUse+1 > base {
					base = d.lastUse + 1
				}
				ldest = base + top
				if s0 != nil {
					s0.uses++
					if base > s0.lastUse {
						s0.lastUse = base
					}
					if s1 != nil {
						s1.uses++
						if base > s1.lastUse {
							s1.lastUse = base
						}
					}
				}
				if !d.live {
					d.live = true
					if d.isMem {
						curMem++
					}
				}
				d.level, d.lastUse, d.uses = ldest, base, 0
			} else {
				srcs := code[i : i+nsrc]
				dsts := code[i+nsrc : i+nsrc+ndst]
				i += nsrc + ndst

				base := hl - 1
				for _, s := range srcs {
					sl := &slots[s]
					if !sl.live {
						sl.level, sl.lastUse, sl.live = hl-1, hl-1, true
						if sl.isMem {
							curMem++
						}
					}
					if sl.level > base {
						base = sl.level
					}
				}
				if storageTerm(r.termMask, w0) {
					for _, dw := range dsts {
						sl := &slots[dw]
						if sl.live && sl.lastUse+1 > base {
							base = sl.lastUse + 1
						}
					}
				}
				ldest = base + top
				for _, s := range srcs {
					sl := &slots[s]
					sl.uses++
					if base > sl.lastUse {
						sl.lastUse = base
					}
				}
				for _, dw := range dsts {
					sl := &slots[dw]
					if !sl.live {
						sl.live = true
						if sl.isMem {
							curMem++
						}
					}
					sl.level, sl.lastUse, sl.uses = ldest, base, 0
				}
			}
			if w0&deltaFlagIsStore != 0 && curMem > a.maxLiveMem {
				a.maxLiveMem = curMem
			}

		case deltaKindJump:
			if w0>>24 != 0 {
				sl := &slots[code[i]]
				i++
				sl.level, sl.lastUse, sl.uses, sl.live = hl-1, hl-1, 0, true
			}
			continue

		case deltaKindBranch:
			// Perfect branches constrain nothing.
			i += 1 + int((w0>>16)&0xff)
			continue

		case deltaKindSyscall:
			if !r.firewall {
				continue
			}
			base := hl - 1
			if deepest > base {
				base = deepest
			}
			ldest = base + lat[isa.SYSCALL]
			if ldest+1 > hl {
				hl = ldest + 1
			}

		default:
			corrupt = true
			break loop
		}
		// A placement or a firewalling syscall: one more operation.
		ops++
		if ldest > deepest {
			deepest = ldest
		}
		if profile != nil {
			profile.Add(ldest, 1)
		}
	}
	anyOps := a.anyOps || deepest != noOps
	if !anyOps {
		deepest = a.deepest
	}
	r.syncBack(seq, curMem, hl, ops, deepest, anyOps)
	if corrupt {
		return fmt.Errorf("core: corrupt delta: unknown record kind %d at event %d", code[i-1]&7, seq-1)
	}
	return nil
}
