package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
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
// execution trace in a single forward pass. It implements trace.Sink and
// trace.BatchSink, so it can be attached directly to the CPU simulator or
// fed from a trace file.
//
// The analyzer is a resolver feeding its own schedule: its Resolver
// validates each event and compiles it into a dependence record, and the
// pending records are replayed on the analyzer's slot table by the one
// placement core (deltaReplay) every budget.CheckEvery events, at the end
// of every batch, and before anything reads the state. The resolver's word
// table and the slot table together are the paper's live well: each
// storage location that holds a live value maps to a slot holding the
// value's level, last use and use count.
//
// Feed events with Event, then call Finish exactly once to obtain the
// metrics. An Analyzer is not safe for concurrent use.
type Analyzer struct {
	cfg Config
	rp  deltaReplay
	// res is the analyzer's own resolver, created at the first event or
	// splice; a Scheduler's analyzer replays an outside resolution and
	// never has one.
	res *Resolver
	// slots is the slot table the records address, and curMem counts its
	// live memory words.
	slots  []deltaSlot
	curMem int
	// err is the first replay failure; once set, the analyzer refuses
	// every further event and Finish.
	err error

	// highestLevel is the paper's firewall floor: no operation may be
	// placed so that it begins above highestLevel-1.
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
	storage *stats.LevelHistogram
	gov     *budget.Governor
	// deaths is a two-pass analysis' eviction schedule and nextDeath the
	// position of the next death not yet compiled into a record.
	deaths    *DeathSchedule
	nextDeath int

	instructions uint64
	ops          uint64
	syscalls     uint64
	classCounts  [16]uint64
	maxLiveMem   int

	finished bool
}

// NewAnalyzer creates an analyzer with the given configuration. The config
// is cloned (Config.Clone), so analyzers built from the same Config value
// share no mutable state and may run on separate goroutines.
func NewAnalyzer(cfg Config) *Analyzer {
	a := &Analyzer{
		cfg:     cfg.Clone(),
		deepest: -1,
	}
	a.rp.init(a)
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

// analyzerBufWords sizes the analyzer's pending record buffer: about four
// words cover the common event, so budget.CheckEvery events fit.
const analyzerBufWords = 4 << 10

// resolver returns the analyzer's own resolver, starting it at the
// analyzer's position on first use.
func (a *Analyzer) resolver() *Resolver {
	if a.res == nil {
		a.res = newResolver(nil, a.instructions, math.MaxInt, DepSegment{Code: make([]uint32, 0, analyzerBufWords)})
	}
	return a.res
}

// Event implements trace.Sink: it consumes one dynamically executed
// instruction. Malformed events are rejected with an error wrapping
// ErrBadEvent before they can touch the DDG.
func (a *Analyzer) Event(e *trace.Event) error {
	if a.finished {
		return errors.New("core: Event after Finish")
	}
	return a.build(e)
}

// Events implements trace.BatchSink: feeding a batch is
// observation-equivalent to calling Event for each element, and the batch
// is replayed before Events returns. Per the BatchSink contract the events
// are read through the shared slice and never mutated or retained.
func (a *Analyzer) Events(batch []trace.Event) error {
	if a.finished {
		return errors.New("core: Event after Finish")
	}
	for i := range batch {
		if err := a.build(&batch[i]); err != nil {
			return err
		}
	}
	return a.flush()
}

// build compiles one event into the pending records and replays them when
// the event count reaches a multiple of budget.CheckEvery, where the
// governor decides, so a budget error returns for the event that crossed
// the boundary. A malformed event leaves no record; the records before it
// are replayed, so the analyzer holds exactly the state of the events it
// accepted, and a replay failure among them is reported first.
func (a *Analyzer) build(e *trace.Event) error {
	if a.err != nil {
		return a.err
	}
	r := a.resolver()
	at := len(r.seg.Code)
	if err := r.build(e); err != nil {
		if ferr := a.flush(); ferr != nil {
			return ferr
		}
		return err
	}
	pos := r.position()
	if a.deaths != nil {
		a.evictDead(pos-1, at)
	}
	if pos%budget.CheckEvery == 0 {
		return a.flush()
	}
	return nil
}

// flush replays the pending records and folds the resolver's scalar
// totals into the analyzer's. Panics in the placement machinery are
// converted into an *AnalysisError instead of unwinding through the
// caller; any failure is kept and returned by every later call.
func (a *Analyzer) flush() (err error) {
	if a.err != nil {
		return a.err
	}
	r := a.res
	if r == nil {
		return nil
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
		if err != nil {
			a.err = err
		}
	}()
	a.grow()
	a.syscalls += r.totals.Syscalls
	for c, n := range r.totals.ClassCounts {
		a.classCounts[c] += n
	}
	r.totals = ResolveTotals{}
	code := r.seg.Code
	r.seg.Code, r.seg.Events = code[:0], 0
	err = a.rp.run(code, a.slots)
	r.start = a.instructions
	return err
}

// grow gives every location the resolver touched first since the last
// replay a dead slot.
func (a *Analyzer) grow() {
	r := a.res
	a.growSlots(r.seg.NewLocs)
	r.slotBase += uint32(len(r.seg.NewLocs))
	r.seg.NewLocs = r.seg.NewLocs[:0]
}

// growSlots appends a dead slot per location key.
func (a *Analyzer) growSlots(locs []uint32) {
	for _, loc := range locs {
		a.slots = append(a.slots, deltaSlot{isMem: loc&deltaMemLoc != 0})
	}
}

// slotOf returns the analyzer's slot for a location key, giving a location
// it never touched a dead slot.
func (a *Analyzer) slotOf(loc uint32) uint32 {
	id := a.res.slotID(loc)
	a.grow()
	return id
}

// Per-entry working-set costs used by the budget governor live in
// internal/budget (see budget.LiveWellEntryBytes, calibrated against
// runtime.MemStats by BenchmarkLiveWellCalibration). Only the register-file
// floor is computed here, since it depends on the ISA.
const regFileBytes = int64(isa.NumRegs) * 24

// governBudget meters the analyzer's working sets against the configured
// memory budget. The replay calls it every budget.CheckEvery events, never
// per event. Under the degrade policy an over-budget observation tightens
// the effective instruction window (recorded in GovernorStats and visible
// in Result.Config.WindowSize); under fail-fast it returns the structured
// budget error that aborts the analysis.
func (a *Analyzer) governBudget() error {
	u := budget.Usage{
		LiveWellBytes: int64(a.curMem)*budget.LiveWellEntryBytes + regFileBytes,
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
	case isMem && wrapsAddressSpace(e.MemAddr, e.MemSize):
		return &BadEventError{Index: seq, PC: e.PC,
			Reason: fmt.Sprintf("%d-byte access at %#x wraps past the end of the address space", e.MemSize, e.MemAddr)}
	}
	return nil
}

// wrapsAddressSpace reports whether an access's last byte lies beyond
// 0xFFFFFFFF, where its word range would wrap to a range whose end
// precedes its start.
func wrapsAddressSpace(addr uint32, size uint8) bool {
	return uint64(addr)+uint64(size) > 1<<32
}

// retire records the statistics of a value whose storage was just reused.
func (a *Analyzer) retire(old *deltaSlot) {
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

// Finish replays the pending records, flushes end-of-trace state and
// returns the metrics. The analyzer rejects further events afterwards.
// Internal panics are converted into an *AnalysisError rather than
// unwinding through the caller.
func (a *Analyzer) Finish() (res *Result, err error) {
	if a.finished {
		return nil, errors.New("core: Finish called twice")
	}
	a.finished = true
	if err := a.flush(); err != nil {
		return nil, err
	}
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &AnalysisError{Event: a.instructions, Stage: "finish", Cause: recoveredError(v)}
		}
	}()

	// Values still live at the end of the trace die here. Retirement feeds
	// only order-independent distributions, so slot order serves.
	if a.cfg.Lifetimes || a.cfg.Sharing {
		for i := range a.slots {
			if sl := &a.slots[i]; sl.live {
				a.retire(sl)
			}
		}
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
// on the per-event path, which the replay inlines. Each
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
