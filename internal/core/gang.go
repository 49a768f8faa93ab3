package core

import (
	"errors"
	"fmt"

	"paragraph/internal/isa"
)

// SchedulerGang replays one resolved record stream for a whole sweep group
// in a single pass. The per-config Scheduler walk repeats work that does
// not depend on the configuration at all — record parsing, slot liveness,
// live-memory counting — once per config, and scatters each config's slot
// levels across its own table, so an 8-config sweep touches eight cache
// lines where one record needs three. The gang hoists the invariant work
// out of the config loop and interleaves every config's (level, lastUse)
// pair per slot, so the per-record inner loop walks a few contiguous
// blocks: slot liveness is a property of the record stream alone (first
// touch is first touch under every config), and so are the operation
// count, live-memory high water mark and — given one branch policy — the
// misprediction sequence.
//
// Eligibility (NewSchedulerGang returns nil otherwise): no lifetime or
// sharing statistics (the gang does not track use counts), no storage
// profile or governor (per-record tail work), a uniform branch policy
// across the group (misprediction decides slot enlivening, so it must be
// config-invariant for the shared liveness bits to be exact), and a
// uniform syscall policy and storage-term class mask (the gang decides the
// firewall and each WAW term once per record, for every config). Window
// sizes, functional units, latencies and parallelism profiles may all
// vary per config. Ineligible groups fall back to per-config Schedulers.
type SchedulerGang struct {
	sch []*Scheduler
	k   int

	// Config-invariant slot state, indexed by dense slot id.
	live  []bool
	isMem []bool

	// state interleaves each slot's per-config pairs: state[slot*2k + 2c]
	// is config c's level, state[slot*2k + 2c + 1] its lastUse. One slot's
	// block is 16k bytes of contiguous memory, walked sequentially by the
	// config loop.
	state []int64

	lat []int64 // lat[op*k + c]: per-config latency tables, interleaved

	// The group's shared storage-term class mask and syscall firewall
	// (see deltaReplay).
	termMask uint32
	firewall bool

	// pred is the gang's single predictor: with a uniform policy every
	// config's predictor consumes the same branch stream and stays
	// bit-identical, so one instance decides mispredictions for all and
	// Seal copies its terminal state into each analyzer.
	pred *predictor

	// Per-config scalars.
	hl      []int64
	deepest []int64
	profOn  []bool
	winSize []uint64
	wins    []*windowState
	fu      []*fuSchedule

	// Config-invariant scalars.
	seq     uint64
	ops     uint64
	anyOps  bool
	curMem  int
	maxLive int

	sealed bool
	newlyS []bool // scratch: per-source first-touch flags (general path)
	wawD   []bool // scratch: per-dest WAW-live flags (general path)
}

// NewSchedulerGang builds a gang over freshly created schedulers, or
// returns nil when the group is ineligible and must schedule per config.
func NewSchedulerGang(scheds []*Scheduler) *SchedulerGang {
	if len(scheds) < 2 {
		return nil
	}
	c0 := &scheds[0].a.cfg
	rp0 := &scheds[0].rp
	for _, s := range scheds {
		a := s.a
		if a.gov != nil || a.storage != nil || a.cfg.Lifetimes || a.cfg.Sharing {
			return nil
		}
		if a.cfg.Branches != c0.Branches || a.cfg.PredictorBits != c0.PredictorBits {
			return nil
		}
		if s.rp.firewall != rp0.firewall || s.rp.termMask != rp0.termMask {
			return nil
		}
		if a.instructions != 0 || a.finished {
			return nil
		}
	}
	k := len(scheds)
	g := &SchedulerGang{
		sch:     scheds,
		k:       k,
		lat:     make([]int64, 256*k),
		hl:      make([]int64, k),
		deepest: make([]int64, k),
		profOn:  make([]bool, k),
		winSize: make([]uint64, k),
		wins:    make([]*windowState, k),
		fu:      make([]*fuSchedule, k),

		termMask: rp0.termMask,
		firewall: rp0.firewall,
	}
	for op := isa.Op(0); op < isa.NumOps; op++ {
		for c, s := range scheds {
			g.lat[int(op)*k+c] = s.a.cfg.latency(op)
		}
	}
	for c, s := range scheds {
		a := s.a
		g.hl[c] = a.highestLevel
		g.deepest[c] = a.deepest
		g.profOn[c] = a.profile != nil
		g.winSize[c] = uint64(a.cfg.WindowSize)
		g.wins[c] = &a.window
		g.fu[c] = a.fu
	}
	if scheds[0].a.pred != nil {
		g.pred = scheds[0].a.pred.clone()
	}
	return g
}

// Apply replays one segment for every config. Segments must arrive in
// emission order; the gang retains nothing from seg after returning.
func (g *SchedulerGang) Apply(seg *DepSegment) (err error) {
	if g.sealed {
		return errors.New("core: gang Apply after Seal")
	}
	start := g.seq
	defer func() {
		if v := recover(); v != nil {
			ev := g.seq
			if ev > start {
				ev--
			}
			err = &AnalysisError{Event: ev, Stage: "event", Cause: recoveredError(v)}
		}
	}()
	for _, loc := range seg.NewLocs {
		g.live = append(g.live, false)
		g.isMem = append(g.isMem, loc&deltaMemLoc != 0)
	}
	if need := len(g.live) * 2 * g.k; cap(g.state) < need {
		ns := make([]int64, need, need+need/2)
		copy(ns, g.state)
		g.state = ns
	} else {
		g.state = g.state[:need]
	}
	return g.run(seg.Code)
}

// gangDrain displaces expired window entries for one config, returning the
// (possibly raised) firewall floor. Drains are deferred to floor consumers:
// a record that neither reads the floor nor pushes (a skip, a correctly
// predicted branch) leaves the window untouched, which is exact because the
// displacement cutoff only grows and displacement's sole effect is the
// floor raise observed here.
func gangDrain(w *windowState, rec, ws uint64, hlc int64) int64 {
	if ws == 0 || rec < ws {
		return hlc
	}
	cutoff := rec - ws
	for w.head < w.tail {
		e := &w.buf[w.head&uint64(len(w.buf)-1)]
		if e.seq > cutoff {
			break
		}
		if lv := e.level + 1; lv > hlc {
			hlc = lv
		}
		w.head++
	}
	return hlc
}

// run replays one record stream for all k configs. The structure mirrors
// deltaReplay.run with the per-config work folded into an inner loop; see
// that function for the per-record semantics being reproduced.
func (g *SchedulerGang) run(code []uint32) error {
	k := g.k
	st := g.state
	live := g.live
	isMem := g.isMem
	lat := g.lat
	hl := g.hl
	deepest := g.deepest
	profOn := g.profOn
	winSize := g.winSize
	wins := g.wins
	fu := g.fu
	pred := g.pred
	termMask := g.termMask

	seq := g.seq
	ops := g.ops
	anyOps := g.anyOps
	curMem := g.curMem
	maxLive := g.maxLive

	for i := 0; i < len(code); {
		w0 := code[i]
		i++
		rec := seq
		seq++
		switch w0 & 7 {
		case deltaKindSkip:
			// Nothing: window drains are deferred (see gangDrain).

		case deltaKindPlace:
			op := int((w0 >> 8) & 0xff)
			nsrc := int((w0 >> 16) & 0xff)
			ndst := int(w0 >> 24)
			latOp := lat[op*k : op*k+k]
			isStore := w0&deltaFlagIsStore != 0
			if nsrc <= 2 && ndst == 1 {
				_ = code[i+nsrc] // one bounds check for the whole record
				var st0, st1 []int64
				var newly0, newly1 bool
				if nsrc > 0 {
					i0 := int(code[i])
					if !live[i0] {
						newly0 = true
						live[i0] = true
						if isMem[i0] {
							curMem++
						}
					}
					st0 = st[i0*2*k : i0*2*k+2*k]
					if nsrc == 2 {
						i1 := int(code[i+1])
						if !live[i1] {
							newly1 = true
							live[i1] = true
							if isMem[i1] {
								curMem++
							}
						}
						st1 = st[i1*2*k : i1*2*k+2*k]
					}
				}
				di := int(code[i+nsrc])
				i += nsrc + 1
				waw := storageTerm(termMask, w0) && live[di]
				if !live[di] {
					live[di] = true
					if isMem[di] {
						curMem++
					}
				}
				if isStore && curMem > maxLive {
					maxLive = curMem
				}
				std := st[di*2*k : di*2*k+2*k]
				for c := 0; c < k; c++ {
					hlc := gangDrain(wins[c], rec, winSize[c], hl[c])
					hl[c] = hlc
					pre := hlc - 1
					base := pre
					c2 := 2 * c
					if st0 != nil {
						if newly0 {
							st0[c2] = pre
							st0[c2+1] = pre
						}
						if l := st0[c2]; l > base {
							base = l
						}
						if st1 != nil {
							if newly1 {
								st1[c2] = pre
								st1[c2+1] = pre
							}
							if l := st1[c2]; l > base {
								base = l
							}
						}
					}
					if waw {
						if t := std[c2+1] + 1; t > base {
							base = t
						}
					}
					top := latOp[c]
					if f := fu[c]; f != nil {
						base = f.schedule(base, top)
					}
					ldest := base + top
					if st0 != nil {
						if base > st0[c2+1] {
							st0[c2+1] = base
						}
						if st1 != nil && base > st1[c2+1] {
							st1[c2+1] = base
						}
					}
					std[c2] = ldest
					std[c2+1] = base
					if !anyOps || ldest > deepest[c] {
						deepest[c] = ldest
					}
					if profOn[c] {
						g.sch[c].rp.hist(ldest)
					}
					if winSize[c] > 0 {
						w := wins[c]
						if int(w.tail-w.head) == len(w.buf) {
							w.grow()
						}
						w.buf[w.tail&uint64(len(w.buf)-1)] = winEntry{seq: rec, level: ldest}
						w.tail++
					}
				}
			} else {
				srcs := code[i : i+nsrc]
				dsts := code[i+nsrc : i+nsrc+ndst]
				i += nsrc + ndst
				newlyS := g.newlyS[:0]
				for _, sw := range srcs {
					si := int(sw)
					n := !live[si]
					if n {
						live[si] = true
						if isMem[si] {
							curMem++
						}
					}
					newlyS = append(newlyS, n)
				}
				g.newlyS = newlyS
				// WAW terms see liveness after source enlivening and
				// before destination enlivening, as a sequential pass
				// would.
				term := storageTerm(termMask, w0)
				wawD := g.wawD[:0]
				for _, dw := range dsts {
					wawD = append(wawD, term && live[dw])
				}
				g.wawD = wawD
				for _, dw := range dsts {
					di := int(dw)
					if !live[di] {
						live[di] = true
						if isMem[di] {
							curMem++
						}
					}
				}
				if isStore && curMem > maxLive {
					maxLive = curMem
				}
				for c := 0; c < k; c++ {
					hlc := gangDrain(wins[c], rec, winSize[c], hl[c])
					hl[c] = hlc
					pre := hlc - 1
					base := pre
					c2 := 2 * c
					for j, sw := range srcs {
						si := int(sw)
						l := st[si*2*k+c2]
						if newlyS[j] {
							st[si*2*k+c2] = pre
							st[si*2*k+c2+1] = pre
							l = pre
						}
						if l > base {
							base = l
						}
					}
					for j, dw := range dsts {
						if wawD[j] {
							di := int(dw)
							if t := st[di*2*k+c2+1] + 1; t > base {
								base = t
							}
						}
					}
					top := latOp[c]
					if f := fu[c]; f != nil {
						base = f.schedule(base, top)
					}
					ldest := base + top
					for _, sw := range srcs {
						si := int(sw)
						if base > st[si*2*k+c2+1] {
							st[si*2*k+c2+1] = base
						}
					}
					for _, dw := range dsts {
						di := int(dw)
						st[di*2*k+c2] = ldest
						st[di*2*k+c2+1] = base
					}
					if !anyOps || ldest > deepest[c] {
						deepest[c] = ldest
					}
					if profOn[c] {
						g.sch[c].rp.hist(ldest)
					}
					if winSize[c] > 0 {
						w := wins[c]
						if int(w.tail-w.head) == len(w.buf) {
							w.grow()
						}
						w.buf[w.tail&uint64(len(w.buf)-1)] = winEntry{seq: rec, level: ldest}
						w.tail++
					}
				}
			}
			ops++
			anyOps = true

		case deltaKindJump:
			if w0>>24 != 0 {
				di := int(code[i])
				i++
				live[di] = true
				std := st[di*2*k : di*2*k+2*k]
				for c := 0; c < k; c++ {
					hlc := gangDrain(wins[c], rec, winSize[c], hl[c])
					hl[c] = hlc
					pre := hlc - 1
					std[2*c] = pre
					std[2*c+1] = pre
				}
			}

		case deltaKindBranch:
			nsrc := int((w0 >> 16) & 0xff)
			if pred == nil {
				i += 1 + nsrc
				break
			}
			pc := code[i]
			srcs := code[i+1 : i+1+nsrc]
			i += 1 + nsrc
			if pred.mispredicted(pc, w0&deltaFlagImmNeg != 0, w0&deltaFlagTaken != 0) {
				newlyS := g.newlyS[:0]
				for _, sw := range srcs {
					si := int(sw)
					n := !live[si]
					if n {
						live[si] = true
					}
					newlyS = append(newlyS, n)
				}
				g.newlyS = newlyS
				top := lat[int((w0>>8)&0xff)*k:]
				for c := 0; c < k; c++ {
					hlc := gangDrain(wins[c], rec, winSize[c], hl[c])
					pre := hlc - 1
					base := pre
					c2 := 2 * c
					for j, sw := range srcs {
						si := int(sw)
						l := st[si*2*k+c2]
						if newlyS[j] {
							st[si*2*k+c2] = pre
							st[si*2*k+c2+1] = pre
							l = pre
						}
						if l > base {
							base = l
						}
					}
					if lv := base + top[c] + 1; lv > hlc {
						hlc = lv
					}
					hl[c] = hlc
				}
			}

		case deltaKindSyscall:
			if !g.firewall {
				break // optimistic: the syscall constrains nothing
			}
			top := lat[int(isa.SYSCALL)*k:]
			for c := 0; c < k; c++ {
				hlc := gangDrain(wins[c], rec, winSize[c], hl[c])
				base := hlc - 1
				if anyOps && deepest[c] > base {
					base = deepest[c]
				}
				ldest := base + top[c]
				if !anyOps || ldest > deepest[c] {
					deepest[c] = ldest
				}
				if profOn[c] {
					g.sch[c].rp.hist(ldest)
				}
				if winSize[c] > 0 {
					wins[c].push(rec, ldest)
				}
				if ldest+1 > hlc {
					hlc = ldest + 1
				}
				hl[c] = hlc
			}
			ops++
			anyOps = true

		default:
			g.seq, g.ops, g.anyOps, g.curMem, g.maxLive = seq, ops, anyOps, curMem, maxLive
			return fmt.Errorf("core: corrupt delta: unknown record kind %d at event %d", w0&7, rec)
		}
	}
	g.seq, g.ops, g.anyOps, g.curMem, g.maxLive = seq, ops, anyOps, curMem, maxLive
	return nil
}

// Seal distributes the gang's terminal state back into every scheduler —
// analyzer scalars, batched profile counts, predictor state — so each
// Scheduler.Finish observes exactly what a solo replay would have left
// behind. The slot tables stay with the gang: Finish reads slots only to
// retire lifetime and sharing statistics, which eligibility excludes, so a
// sealed scheduler can Finish but not Apply.
func (g *SchedulerGang) Seal() {
	if g.sealed {
		return
	}
	g.sealed = true
	for c, s := range g.sch {
		a := s.a
		s.sealed = true
		s.rp.flushHist()
		a.instructions = g.seq
		a.highestLevel = g.hl[c]
		a.well.preLevel = g.hl[c] - 1
		a.ops = g.ops
		a.deepest = g.deepest[c]
		a.anyOps = g.anyOps
		a.maxLiveMem = g.maxLive
		if g.pred != nil {
			a.pred = g.pred.clone()
		}
	}
}
