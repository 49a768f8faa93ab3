package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"

	"paragraph/internal/budget"
	"paragraph/internal/isa"
	"paragraph/internal/stats"
	"paragraph/internal/trace"
)

// ClassCounts maps operation classes to dynamic instruction counts. It is
// an ordinary map in every way except its gob encoding, which writes the
// entries sorted by class: gob encodes plain maps in iteration order, and
// persisted results must be byte-reproducible (the fleet differentials
// compare shard result files across machines byte for byte).
type ClassCounts map[isa.OpClass]uint64

// classCountEntry is one sorted ClassCounts entry in the gob stream.
type classCountEntry struct {
	Class isa.OpClass
	Count uint64
}

// GobEncode implements gob.GobEncoder with a deterministic entry order.
func (c ClassCounts) GobEncode() ([]byte, error) {
	entries := make([]classCountEntry, 0, len(c))
	for cls, n := range c {
		entries = append(entries, classCountEntry{Class: cls, Count: n})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Class < entries[j].Class })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (c *ClassCounts) GobDecode(data []byte) error {
	var entries []classCountEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&entries); err != nil {
		return err
	}
	*c = make(ClassCounts, len(entries))
	for _, e := range entries {
		(*c)[e.Class] = e.Count
	}
	return nil
}

// Analyzer builds and analyzes the dynamic dependency graph of a serial
// execution trace in a single forward pass. It implements trace.Sink, so it
// can be attached directly to the CPU simulator or fed from a trace file.
//
// Feed events with Event, then call Finish exactly once to obtain the
// metrics. An Analyzer is not safe for concurrent use.
type Analyzer struct {
	cfg  Config
	well *liveWell
	// lat is cfg's operation time per class (Config.classLatencies).
	lat [16]int64

	// highestLevel is the paper's firewall floor: no operation may be
	// placed so that it begins above highestLevel-1. preLevel in the
	// live well tracks highestLevel-1.
	highestLevel int64
	// deepest is the paper's deepestLevelYetUsed.
	deepest int64
	anyOps  bool

	profile   *stats.LevelHistogram
	lifetimes stats.LogDist
	sharing   stats.LogDist

	window  windowState
	fu      *fuSchedule
	pred    *predictor
	deaths  *DeathSchedule
	storage *stats.LevelHistogram
	gov     *budget.Governor

	instructions uint64
	ops          uint64
	syscalls     uint64
	classCounts  [16]uint64
	maxLiveMem   int

	// plans is the operand-plan table (plan.go), allocated at the first
	// event: schedulers and splices, which see no events, never need one.
	plans    *planTable
	finished bool
}

// NewAnalyzer creates an analyzer with the given configuration. The config
// is cloned (Config.Clone), so analyzers built from the same Config value
// share no mutable state and may run on separate goroutines.
func NewAnalyzer(cfg Config) *Analyzer {
	a := &Analyzer{
		cfg:     cfg.Clone(),
		well:    newLiveWell(),
		lat:     cfg.classLatencies(),
		deepest: -1,
	}
	a.well.preLevel = -1 // highestLevel(0) - 1
	if cfg.Profile {
		a.profile = stats.NewLevelHistogram(cfg.ProfileBuckets)
	}
	if cfg.FunctionalUnits > 0 {
		a.fu = newFUSchedule(cfg.FunctionalUnits)
	}
	if cfg.Branches != BranchPerfect {
		a.pred = newPredictor(cfg.Branches, cfg.PredictorBits)
	}
	if cfg.StorageProfile {
		a.storage = stats.NewLevelHistogram(cfg.ProfileBuckets)
	}
	if cfg.MemBudget > 0 {
		a.gov = budget.New(cfg.MemBudget, cfg.BudgetPolicy)
	}
	return a
}

// Event implements trace.Sink: it consumes one dynamically executed
// instruction and updates the DDG state. Malformed events are rejected with
// an error wrapping ErrBadEvent before they can touch the DDG; panics in the
// placement machinery are converted into an *AnalysisError instead of
// unwinding through the caller.
func (a *Analyzer) Event(e *trace.Event) (err error) {
	if a.finished {
		return errors.New("core: Event after Finish")
	}
	seq := a.instructions
	if a.plans == nil {
		a.plans = new(planTable)
	}
	p, verr := a.plans.get(e, seq)
	if verr != nil {
		return verr
	}
	defer func() {
		if v := recover(); v != nil {
			err = &AnalysisError{Event: seq, Stage: "event", Cause: recoveredError(v)}
		}
	}()
	a.event(e, seq, p)
	if a.deaths != nil {
		a.evictDead(seq)
	}
	if a.storage != nil {
		a.storage.Add(int64(seq), uint64(a.well.mem.len()))
	}
	if a.gov != nil && a.instructions%budget.CheckEvery == 0 {
		if err := a.governBudget(); err != nil {
			return err
		}
	}
	return nil
}

// Events implements trace.BatchSink: the hot-path batch ingest loop.
// Feeding a batch is observation-equivalent to calling Event for each
// element — validation, eviction, storage profiling and the governor's
// every-CheckEvery cadence are all preserved per event, so GovernorStats
// and every Result field come out identical — but the interface call, the
// defensive event copy and the panic-recovery frame are paid once per
// batch instead of once per event. Per the BatchSink contract the events
// are read through the shared slice and never mutated or retained.
func (a *Analyzer) Events(batch []trace.Event) (err error) {
	if a.finished {
		return errors.New("core: Event after Finish")
	}
	seq := a.instructions
	defer func() {
		if v := recover(); v != nil {
			err = &AnalysisError{Event: seq, Stage: "event", Cause: recoveredError(v)}
		}
	}()
	if a.plans == nil {
		a.plans = new(planTable)
	}
	for i := range batch {
		e := &batch[i]
		seq = a.instructions
		p, verr := a.plans.get(e, seq)
		if verr != nil {
			return verr
		}
		a.event(e, seq, p)
		if a.deaths != nil {
			a.evictDead(seq)
		}
		if a.storage != nil {
			a.storage.Add(int64(seq), uint64(a.well.mem.len()))
		}
		if a.gov != nil && a.instructions%budget.CheckEvery == 0 {
			if err := a.governBudget(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Per-entry working-set costs used by the budget governor live in
// internal/budget (see budget.LiveWellEntryBytes, calibrated against
// runtime.MemStats by BenchmarkLiveWellCalibration). Only the register-file
// floor is computed here, since it depends on the ISA.
const regFileBytes = int64(isa.NumRegs) * 24

// governBudget meters the analyzer's working sets against the configured
// memory budget. Called every budget.CheckEvery events, never per event.
// Under the degrade policy an over-budget observation tightens the
// effective instruction window (recorded in GovernorStats and visible in
// Result.Config.WindowSize); under fail-fast it returns the structured
// budget error that aborts the analysis.
func (a *Analyzer) governBudget() error {
	return a.governBudgetAt(a.well.mem.len())
}

// governBudgetAt is governBudget with the live-memory count supplied by the
// caller: during a speculative splice (ApplyDelta) the live well is stale —
// touched locations live in the slot array until write-back — so the splice
// meters its own running count instead.
func (a *Analyzer) governBudgetAt(memLen int) error {
	u := budget.Usage{
		LiveWellBytes: int64(memLen)*budget.LiveWellEntryBytes + regFileBytes,
		WindowBytes:   int64(a.window.count()) * budget.WindowEntryBytes,
	}
	if a.fu != nil {
		u.WindowBytes += int64(len(a.fu.counts)) * budget.FUEntryBytes
	}
	newWindow, err := a.gov.Govern(u, a.cfg.WindowSize)
	if err != nil {
		return fmt.Errorf("core: event %d: %w", a.instructions, err)
	}
	a.cfg.WindowSize = newWindow
	return nil
}

// validateEvent checks an event's internal consistency. The checks mirror
// the invariants the CPU tracer maintains; an event violating them came from
// a corrupt trace or a buggy producer, and processing it would poison the
// DDG state silently. It is the only code that builds bad-event errors:
// planTable.get checks the same conditions against a plan and calls it
// when one fails.
func validateEvent(e *trace.Event, seq uint64) error {
	if e.Ins.Op >= isa.NumOps {
		return &BadEventError{Index: seq, PC: e.PC,
			Reason: fmt.Sprintf("unknown opcode %d", e.Ins.Op)}
	}
	info := e.Ins.Op.Info()
	isMem := info.IsLoad || info.IsStore
	switch {
	case isMem && e.MemSize == 0:
		return &BadEventError{Index: seq, PC: e.PC,
			Reason: "memory operation with zero access size"}
	case !isMem && e.MemSize > 0:
		return &BadEventError{Index: seq, PC: e.PC,
			Reason: fmt.Sprintf("%v carries a memory access", e.Ins.Op)}
	case isMem && e.Seg == trace.SegNone:
		return &BadEventError{Index: seq, PC: e.PC,
			Reason: "memory operation with no segment classification"}
	case isMem && (e.Seg == trace.SegStack) != (e.MemAddr >= stackFloor):
		return &BadEventError{Index: seq, PC: e.PC,
			Reason: fmt.Sprintf("segment %v inconsistent with address %#x", e.Seg, e.MemAddr)}
	}
	return nil
}

// event dispatches one instruction through its plan; seq is its trace
// position.
func (a *Analyzer) event(e *trace.Event, seq uint64, p *opPlan) {
	a.instructions++

	// Slide the instruction window: instructions displaced by this one
	// carry a firewall (Section 3.2, Figure 6).
	if w := a.cfg.WindowSize; w > 0 {
		a.window.displace(seq, uint64(w), a)
	}

	a.classCounts[p.class]++

	switch p.kind {
	case planSkip:
	case planSyscall:
		a.syscalls++
		if a.cfg.Syscalls != SyscallOptimistic { // optimistic: assumed to modify nothing
			a.placeSyscall(seq)
		}
	case planJump:
		// Jumps and calls are control instructions and are excluded
		// from the DDG, but calls produce a return-address value
		// that later code saves and restores. The return address is
		// a static constant (PC+4), so the value is bound as if it
		// pre-existed: available immediately, delaying nothing.
		a.bindConstant(p.bind)
	case planBranch:
		// Control instructions are never placed, but under an
		// imperfect branch model a misprediction firewalls the DDG at
		// the branch's resolution level: nothing later may be placed
		// above it.
		if a.pred != nil && a.pred.mispredicted(e.PC, e.Ins.Imm < 0, e.Taken) {
			a.raiseFloor(a.branchResolution(p) + 1)
		}
	default:
		a.place(e, seq, p)
	}
}

// bindConstant binds a register to an immediately available value at the
// current firewall floor.
func (a *Analyzer) bindConstant(r isa.Reg) {
	v := value{level: a.highestLevel - 1, lastUse: a.highestLevel - 1}
	old, wasLive := a.well.setReg(r, v)
	if wasLive {
		a.retire(old)
	}
}

// retire records the statistics of a value whose storage was just reused.
func (a *Analyzer) retire(old value) {
	if a.cfg.Lifetimes {
		life := old.lastUse - old.level
		if life < 0 {
			life = 0 // created but never consumed
		}
		a.lifetimes.Add(life)
	}
	if a.cfg.Sharing {
		a.sharing.Add(int64(old.uses))
	}
}

// wordRange returns the inclusive range of word addresses covered by a
// memory access. The live well tracks memory at word granularity, the
// paper's "located by address" resolution; sub-word stores therefore kill
// the whole word's value.
func wordRange(addr uint32, size uint8) (lo, hi uint32) {
	if size == 0 {
		return 1, 0 // empty range
	}
	return addr >> 2, (addr + uint32(size) - 1) >> 2
}

// renamedSeg reports whether storage dependencies are removed for the given
// memory segment under the current configuration.
func (a *Analyzer) renamedSeg(seg trace.Segment) bool {
	if seg == trace.SegStack {
		return a.cfg.RenameStack
	}
	return a.cfg.RenameData
}

// place assigns the instruction its DDG level using the placement rule and
// updates the live well. This is the heart of Paragraph.
func (a *Analyzer) place(e *trace.Event, seq uint64, p *opPlan) {
	top := a.lat[p.class]
	srcs, dsts := p.src[:p.nsrc], p.dst[:p.ndst]

	// Base level: the deepest of the firewall floor and the source
	// availability levels. The operation executes in levels
	// base+1 .. base+top and its result becomes available at base+top.
	base := a.highestLevel - 1

	for _, r := range srcs {
		if rec := a.well.reg(r); rec.level > base {
			base = rec.level
		}
	}
	var memLo, memHi uint32
	if p.load {
		memLo, memHi = wordRange(e.MemAddr, e.MemSize)
		for w := memLo; w <= memHi; w++ {
			if v := a.well.memRead(w); v.level > base {
				base = v.level
			}
		}
	}

	// Storage-dependency term (Ddest+1): only when renaming is off for
	// the destination's location class.
	if !a.cfg.RenameRegisters {
		for _, d := range dsts {
			if rec, live := a.well.regIfLive(d); live && rec.lastUse+1 > base {
				base = rec.lastUse + 1
			}
		}
	}
	if p.store {
		memLo, memHi = wordRange(e.MemAddr, e.MemSize)
		if !a.renamedSeg(e.Seg) {
			for w := memLo; w <= memHi; w++ {
				if v, live := a.well.mem.get(w); live && v.lastUse+1 > base {
					base = v.lastUse + 1
				}
			}
		}
	}

	// Resource dependencies: delay until top consecutive levels each
	// have a free functional unit (Figure 4).
	if a.fu != nil {
		base = a.fu.schedule(base, top)
	}

	ldest := base + top

	// The sources are consumed at the base level; record the deepest
	// consumption for future storage dependencies, and the fan-out.
	for _, r := range srcs {
		rec := a.well.reg(r)
		rec.uses++
		if base > rec.lastUse {
			rec.lastUse = base
		}
	}
	if p.load {
		for w := memLo; w <= memHi; w++ {
			v := a.well.memRead(w)
			v.uses++
			if base > v.lastUse {
				v.lastUse = base
			}
			a.well.mem.put(w, v)
		}
	}

	// Bind the created value(s). lastUse starts at the creating
	// operation's base level: a later overwrite must begin strictly
	// after this operation began (one level of WAW spacing), and the
	// storage-dependency term then grows with each consumer.
	newVal := value{level: ldest, lastUse: base}
	for _, d := range dsts {
		if old, wasLive := a.well.setReg(d, newVal); wasLive {
			a.retire(old)
		}
	}
	if p.store {
		for w := memLo; w <= memHi; w++ {
			if old, wasLive := a.well.mem.put(w, newVal); wasLive {
				a.retire(old)
			}
		}
		if n := a.well.mem.len(); n > a.maxLiveMem {
			a.maxLiveMem = n
		}
	}

	a.placed(seq, ldest)
}

// placed records bookkeeping common to every operation that enters the DDG.
func (a *Analyzer) placed(seq uint64, ldest int64) {
	a.ops++
	if !a.anyOps || ldest > a.deepest {
		a.deepest = ldest
		a.anyOps = true
	}
	if a.profile != nil {
		a.profile.Add(ldest, 1)
	}
	if a.cfg.WindowSize > 0 {
		a.window.push(seq, ldest)
	}
}

// placeSyscall implements the conservative policy: a firewall is placed
// immediately after the deepest computation yet seen, the system call
// itself lands just below the firewall, and highestLevel advances past it
// so that no later operation can be placed above the call (Section 3.2's
// second special case).
func (a *Analyzer) placeSyscall(seq uint64) {
	base := a.highestLevel - 1
	if a.anyOps && a.deepest > base {
		base = a.deepest
	}
	ldest := base + a.lat[isa.ClassSyscall]
	a.placed(seq, ldest)
	a.raiseFloor(ldest + 1)
}

// raiseFloor advances the firewall floor (highestLevel) monotonically.
func (a *Analyzer) raiseFloor(level int64) {
	if level > a.highestLevel {
		a.highestLevel = level
		a.well.preLevel = level - 1
	}
}

// Result carries every metric of one analysis run.
type Result struct {
	Config Config

	// Instructions is the number of trace events consumed, including
	// control instructions and NOPs.
	Instructions uint64
	// Operations is the number of value-creating operations placed in
	// the DDG; the paper computes available parallelism from these.
	Operations uint64
	// Syscalls is the number of system-call instructions seen.
	Syscalls uint64

	// CriticalPath is the height of the topologically sorted DDG: the
	// minimum number of steps needed to execute the trace.
	CriticalPath int64
	// Available is the available parallelism: Operations / CriticalPath.
	Available float64

	// Profile is the parallelism profile (operations per DDG level,
	// bucket-averaged); nil unless Config.Profile was set.
	Profile []stats.ProfilePoint
	// StorageProfile is the live-well occupancy curve (average live
	// memory words per trace-position bucket); nil unless
	// Config.StorageProfile was set.
	StorageProfile []stats.ProfilePoint
	// ProfileBucketWidth is the number of levels per profile bucket.
	ProfileBucketWidth int64
	// PeakOps is the highest bucket-averaged profile value.
	PeakOps float64

	// Lifetimes is the value-lifetime distribution in DDG levels; only
	// populated when Config.Lifetimes was set.
	Lifetimes stats.LogDist
	// Sharing is the degree-of-sharing distribution (consumers per
	// value); only populated when Config.Sharing was set.
	Sharing stats.LogDist

	// Branches and Mispredictions report the modelled predictor's
	// behaviour (zero under the perfect policy).
	Branches       uint64
	Mispredictions uint64

	// ClassCounts gives dynamic instruction counts per operation class.
	ClassCounts ClassCounts
	// MaxLiveMemoryWords is the peak number of live memory words in the
	// live well — the working set the paper needed 32 MB for.
	MaxLiveMemoryWords int

	// Governor reports memory-budget accounting (peak usage, degradations,
	// the effective window after any tightening); nil unless
	// Config.MemBudget was set.
	Governor *budget.GovernorStats
}

// Finish flushes end-of-trace state and returns the metrics. The analyzer
// rejects further events afterwards. Internal panics are converted into an
// *AnalysisError rather than unwinding through the caller.
func (a *Analyzer) Finish() (res *Result, err error) {
	if a.finished {
		return nil, errors.New("core: Finish called twice")
	}
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &AnalysisError{Event: a.instructions, Stage: "finish", Cause: recoveredError(v)}
		}
	}()
	a.finished = true

	// Values still live at the end of the trace die here.
	if a.cfg.Lifetimes || a.cfg.Sharing {
		a.well.forEachLive(func(v value) { a.retire(v) })
	}

	r := &Result{
		Config:             a.cfg,
		Instructions:       a.instructions,
		Operations:         a.ops,
		Syscalls:           a.syscalls,
		ClassCounts:        make(map[isa.OpClass]uint64),
		MaxLiveMemoryWords: a.maxLiveMem,
	}
	for cls, n := range a.classCounts {
		if n > 0 {
			r.ClassCounts[isa.OpClass(cls)] = n
		}
	}
	if a.pred != nil {
		r.Branches = a.pred.branches
		r.Mispredictions = a.pred.mispredicts
	}
	if a.anyOps {
		r.CriticalPath = a.deepest + 1
		r.Available = float64(a.ops) / float64(r.CriticalPath)
	}
	if a.storage != nil {
		r.StorageProfile = a.storage.Profile()
	}
	if a.profile != nil {
		r.Profile = a.profile.Profile()
		r.ProfileBucketWidth = a.profile.Width()
		for _, p := range r.Profile {
			if p.Ops > r.PeakOps {
				r.PeakOps = p.Ops
			}
		}
	}
	if a.cfg.Lifetimes {
		r.Lifetimes = a.lifetimes
	}
	if a.cfg.Sharing {
		r.Sharing = a.sharing
	}
	if a.gov != nil {
		st := a.gov.Stats()
		r.Governor = &st
	}
	return r, nil
}

// MustFinish is Finish for callers that treat an analysis failure as fatal
// (tests, benchmarks, examples); it panics on error.
func (a *Analyzer) MustFinish() *Result {
	r, err := a.Finish()
	if err != nil {
		panic(err)
	}
	return r
}

// String summarizes the result in one line.
func (r *Result) String() string {
	return fmt.Sprintf("ops=%d critical-path=%d available=%.2f (syscalls=%d, %s)",
		r.Operations, r.CriticalPath, r.Available, r.Syscalls, r.Config.Syscalls)
}

// windowState implements the sliding instruction window as a FIFO of
// (sequence number, level) pairs for placed instructions. Displacement of
// an instruction raises the firewall floor past its level, so nothing later
// can be placed at or above it.
//
// The FIFO is a power-of-two circular buffer: head and tail are absolute
// push/displace counts and an entry lives at index count&mask. Live entries
// are bounded by the window size, so the buffer grows to the largest window
// in use and then never moves again — no append checks or compaction copies
// on the per-event path, which the record-replay scheduler inlines. Each
// entry interleaves (seq, level) so a push or pop touches one cache line,
// not one per array.
type winEntry struct {
	seq   uint64
	level int64
}

type windowState struct {
	buf  []winEntry
	head uint64
	tail uint64
}

// count returns the number of in-window entries.
func (w *windowState) count() int { return int(w.tail - w.head) }

// grow doubles the buffer, linearizing live entries to the front.
func (w *windowState) grow() {
	n := len(w.buf) * 2
	if n == 0 {
		n = 1024
	}
	buf := make([]winEntry, n)
	mask := uint64(len(w.buf) - 1)
	for j, k := 0, w.head; k < w.tail; j, k = j+1, k+1 {
		buf[j] = w.buf[k&mask]
	}
	w.tail -= w.head
	w.head = 0
	w.buf = buf
}

func (w *windowState) push(seq uint64, level int64) {
	if int(w.tail-w.head) == len(w.buf) {
		w.grow()
	}
	w.buf[w.tail&uint64(len(w.buf)-1)] = winEntry{seq: seq, level: level}
	w.tail++
}

// displace pops every instruction that has left the window now that seq is
// entering, firing its firewall.
func (w *windowState) displace(seq, size uint64, a *Analyzer) {
	if seq < size {
		return
	}
	cutoff := seq - size
	mask := uint64(len(w.buf) - 1)
	for w.head < w.tail {
		e := &w.buf[w.head&mask]
		if e.seq > cutoff {
			break
		}
		a.raiseFloor(e.level + 1)
		w.head++
	}
}

// fuSchedule tracks per-level functional-unit occupancy. Levels at or below
// floor are known full and pruned, bounding memory.
type fuSchedule struct {
	units  int
	counts map[int64]int
	floor  int64 // every level <= floor holds `units` busy FUs
}

func newFUSchedule(units int) *fuSchedule {
	return &fuSchedule{units: units, counts: make(map[int64]int), floor: -1}
}

// schedule finds the earliest base >= the data-ready base such that levels
// base+1 .. base+top all have a free unit, and claims them.
func (f *fuSchedule) schedule(base, top int64) int64 {
	if base < f.floor {
		base = f.floor
	}
	for {
		conflict := int64(-1)
		for l := base + 1; l <= base+top; l++ {
			if f.counts[l] >= f.units {
				conflict = l
				break
			}
		}
		if conflict < 0 {
			break
		}
		base = conflict
	}
	for l := base + 1; l <= base+top; l++ {
		f.counts[l]++
	}
	for f.counts[f.floor+1] >= f.units {
		f.floor++
		delete(f.counts, f.floor)
	}
	return base
}
