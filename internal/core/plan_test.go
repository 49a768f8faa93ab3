package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"paragraph/internal/isa"
	"paragraph/internal/minic"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// The plan tests hold the resolver, and so every analyzer, to a reference
// that derives every operand from the event, as the front-ends did before
// operand plans: refResolver compiles each event's record through Op.Info,
// SourceRegs, regDests and Dest, and refAnalyzer replays those records with
// a Scheduler of its config.

// refAnalyzer is an analyzer driven by the per-event operand derivation: a
// refResolver whose segments a Scheduler replays.
type refAnalyzer struct {
	res *refResolver
	sch *Scheduler
}

func newRefAnalyzer(cfg Config) *refAnalyzer {
	a := &refAnalyzer{sch: NewScheduler(cfg)}
	a.res = &refResolver{Resolver: NewResolver(cfg, a.sch.Apply)}
	return a
}

func (a *refAnalyzer) Event(e *trace.Event) error { return a.res.Event(e) }

func (a *refAnalyzer) Finish() (*Result, error) {
	if err := a.res.Flush(); err != nil {
		return nil, err
	}
	return a.sch.Finish(a.res.Totals())
}

func (a *refAnalyzer) MustFinish() *Result {
	r, err := a.Finish()
	if err != nil {
		panic(err)
	}
	return r
}

// refResolver is a Resolver driven by the per-event record compilation.
type refResolver struct {
	*Resolver
	srcBuf []isa.Reg
}

func (r *refResolver) Event(e *trace.Event) error {
	if err := r.build(e); err != nil {
		return err
	}
	if len(r.seg.Code) >= r.cut {
		return r.Flush()
	}
	return nil
}

func (r *refResolver) build(e *trace.Event) error {
	seq := r.start + r.totals.Events
	if verr := validateEvent(e, seq); verr != nil {
		return verr
	}
	r.totals.Events++
	r.seg.Events++
	op := e.Ins.Op
	info := op.Info()
	r.totals.ClassCounts[info.Class]++
	w0 := uint32(deltaKindSkip) | uint32(op)<<8
	switch {
	case op == isa.NOP:
		r.seg.Code = append(r.seg.Code, w0)
		return nil
	case e.IsSyscall():
		r.totals.Syscalls++
		r.seg.Code = append(r.seg.Code, w0|deltaKindSyscall)
		return nil
	case info.IsJump:
		if dst, ok := e.Ins.Dest(); ok {
			r.seg.Code = append(r.seg.Code, w0|deltaKindJump|1<<24, r.regSlotID(dst))
		} else {
			r.seg.Code = append(r.seg.Code, w0)
		}
		return nil
	case info.IsBranch:
		w0 |= deltaKindBranch
		if e.Taken {
			w0 |= deltaFlagTaken
		}
		if e.Ins.Imm < 0 {
			w0 |= deltaFlagImmNeg
		}
		r.srcBuf = e.Ins.SourceRegs(r.srcBuf[:0])
		nsrc := uint32(0)
		at := len(r.seg.Code)
		r.seg.Code = append(r.seg.Code, 0, e.PC)
		for _, reg := range r.srcBuf {
			if reg == isa.Zero {
				continue
			}
			r.seg.Code = append(r.seg.Code, r.regSlotID(reg))
			nsrc++
		}
		r.seg.Code[at] = w0 | nsrc<<16
		return nil
	}
	w0 |= deltaKindPlace
	at := len(r.seg.Code)
	r.seg.Code = append(r.seg.Code, 0)
	r.srcBuf = e.Ins.SourceRegs(r.srcBuf[:0])
	nsrc := uint32(0)
	for _, reg := range r.srcBuf {
		if reg == isa.Zero {
			continue
		}
		r.seg.Code = append(r.seg.Code, r.regSlotID(reg))
		nsrc++
	}
	if info.IsLoad {
		lo, hi := wordRange(e.MemAddr, e.MemSize)
		for w := lo; w <= hi; w++ {
			r.seg.Code = append(r.seg.Code, r.memSlotID(w))
			nsrc++
		}
	}
	ndst := uint32(0)
	var dbuf [2]isa.Reg
	for _, dst := range regDests(&e.Ins, dbuf[:0]) {
		if dst == isa.Zero {
			continue
		}
		r.seg.Code = append(r.seg.Code, r.regSlotID(dst))
		ndst++
	}
	if info.IsStore {
		w0 |= deltaFlagIsStore
		if e.Seg == trace.SegStack {
			w0 |= deltaFlagIsStack
		}
		lo, hi := wordRange(e.MemAddr, e.MemSize)
		for w := lo; w <= hi; w++ {
			r.seg.Code = append(r.seg.Code, r.memSlotID(w))
			ndst++
		}
	}
	r.seg.Code[at] = w0 | nsrc<<16 | ndst<<24
	return nil
}

// segCopy is an emitted segment, copied out of the resolver's recycled
// arrays.
type segCopy struct {
	NewLocs []uint32
	Code    []uint32
	Events  uint64
}

// resolverPair runs a plan-driven Resolver beside a refResolver and checks
// that they emit the same segments in the same order and end with the same
// totals. Both recycle every segment as soon as it is compared.
type resolverPair struct {
	t       testing.TB
	plan    *Resolver
	ref     *refResolver
	pending []segCopy
	segs    int
}

func newResolverPair(t testing.TB) *resolverPair {
	p := &resolverPair{t: t}
	p.plan = NewResolver(Config{}, func(seg *DepSegment) error {
		p.pending = append(p.pending, segCopy{slices.Clone(seg.NewLocs), slices.Clone(seg.Code), seg.Events})
		p.plan.Reuse(seg)
		return nil
	})
	p.ref = &refResolver{}
	p.ref.Resolver = NewResolver(Config{}, func(seg *DepSegment) error {
		defer p.ref.Reuse(seg)
		if len(p.pending) == 0 {
			return fmt.Errorf("reference emitted segment %d (%d events) that the plan resolver did not", p.segs, seg.Events)
		}
		got := p.pending[0]
		p.pending = p.pending[1:]
		want := segCopy{seg.NewLocs, seg.Code, seg.Events}
		if !reflect.DeepEqual(normSeg(got), normSeg(want)) {
			return fmt.Errorf("segment %d differs from the reference's (%d vs %d events, %d vs %d words)",
				p.segs, got.Events, want.Events, len(got.Code), len(want.Code))
		}
		p.segs++
		return nil
	})
	return p
}

// normSeg maps empty slices to nil, so recycled and fresh arrays compare
// by content.
func normSeg(s segCopy) segCopy {
	if len(s.NewLocs) == 0 {
		s.NewLocs = nil
	}
	if len(s.Code) == 0 {
		s.Code = nil
	}
	return s
}

// events feeds a batch to both resolvers; both must return the same error.
func (p *resolverPair) events(batch []trace.Event) error {
	perr := p.plan.Events(batch)
	var rerr error
	for i := range batch {
		if rerr = p.ref.Event(&batch[i]); rerr != nil {
			break
		}
	}
	if !sameError(perr, rerr) {
		p.t.Fatalf("resolver error %v, reference %v", perr, rerr)
	}
	return perr
}

// finish flushes both resolvers and checks the tail and the totals.
func (p *resolverPair) finish() {
	p.t.Helper()
	if err := p.plan.Flush(); err != nil {
		p.t.Fatal(err)
	}
	if err := p.ref.Flush(); err != nil {
		p.t.Fatal(err)
	}
	if len(p.pending) != 0 {
		p.t.Fatalf("plan resolver emitted %d segments the reference did not", len(p.pending))
	}
	if got, want := p.plan.Totals(), p.ref.Totals(); got != want {
		p.t.Fatalf("totals %+v, reference %+v", got, want)
	}
}

// sameError reports whether two errors are both nil or both non-nil with
// the same message.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// planMatrix is the configuration matrix the analyzer must match the
// reference under: Figure 7's config, Table 4's four renaming conditions,
// and imperfect branch models with window and functional-unit limits,
// lifetimes and sharing.
func planMatrix() []Config {
	twoBit := Config{RenameRegisters: true, Branches: BranchTwoBit, PredictorBits: 10,
		WindowSize: 64, FunctionalUnits: 4, Lifetimes: true, Sharing: true}
	static := Dataflow(SyscallOptimistic)
	static.Branches = BranchStatic
	static.WindowSize = 2048
	static.FunctionalUnits = 8
	static.Lifetimes = true
	static.Sharing = true
	stall := Config{Branches: BranchStall, RenameStack: true, WindowSize: 16, StorageProfile: true}
	return []Config{
		Dataflow(SyscallConservative),
		{Syscalls: SyscallConservative},
		{Syscalls: SyscallConservative, RenameRegisters: true},
		{Syscalls: SyscallConservative, RenameRegisters: true, RenameStack: true},
		{Syscalls: SyscallConservative, RenameRegisters: true, RenameStack: true, RenameData: true},
		twoBit, static, stall,
	}
}

// analyzerPairs runs one plan-driven Analyzer per config — fed batches
// through Events — and one more for the first config fed event by event,
// each beside a refAnalyzer of its config.
type analyzerPairs struct {
	t    testing.TB
	cfgs []Config
	plan []*Analyzer // plan[len(cfgs)] is cfgs[0]'s per-event analyzer
	ref  []*refAnalyzer
}

func newAnalyzerPairs(t testing.TB, cfgs []Config) *analyzerPairs {
	p := &analyzerPairs{t: t, cfgs: cfgs}
	for _, cfg := range cfgs {
		p.plan = append(p.plan, NewAnalyzer(cfg))
		p.ref = append(p.ref, newRefAnalyzer(cfg))
	}
	p.plan = append(p.plan, NewAnalyzer(cfgs[0]))
	return p
}

// events feeds a batch to every analyzer; each must return the error its
// reference returns.
func (p *analyzerPairs) events(batch []trace.Event) {
	p.t.Helper()
	for ci, ref := range p.ref {
		var rerr error
		for i := range batch {
			if rerr = ref.Event(&batch[i]); rerr != nil {
				break
			}
		}
		if perr := p.plan[ci].Events(batch); !sameError(perr, rerr) {
			p.t.Fatalf("config %d: Events error %v, reference %v", ci, perr, rerr)
		}
		if ci == 0 {
			var perr error
			for i := range batch {
				if perr = p.plan[len(p.cfgs)].Event(&batch[i]); perr != nil {
					break
				}
			}
			if !sameError(perr, rerr) {
				p.t.Fatalf("config 0: Event error %v, reference %v", perr, rerr)
			}
		}
	}
}

// finish checks every analyzer's Result against its reference's.
func (p *analyzerPairs) finish() {
	p.t.Helper()
	want := make([]*Result, len(p.ref))
	for ci, ref := range p.ref {
		r, err := ref.Finish()
		if err != nil {
			p.t.Fatalf("config %d: reference: %v", ci, err)
		}
		want[ci] = r
	}
	for ai, a := range p.plan {
		ci := ai % len(p.cfgs)
		got, err := a.Finish()
		if err != nil {
			p.t.Fatalf("analyzer %d: %v", ai, err)
		}
		if !reflect.DeepEqual(got, want[ci]) {
			p.t.Fatalf("analyzer %d (config %+v): result differs from the reference's:\n got %v\nwant %v",
				ai, p.cfgs[ci], got, want[ci])
		}
	}
}

// analogueAnalyzedEvents bounds the prefix of each analogue the config
// matrix analyzes: 17 analyzers over all 13.2M events of the ten analogues
// cost over a minute of CPU, and a plan table reaches its steady state
// within each program's first few thousand events.
const analogueAnalyzedEvents = 1 << 18

// TestPlanTableAnalogues holds both front-ends to the references on real
// programs: for each of the ten analogues' scale-1 executions, the
// resolver's segments and totals over the whole trace equal the reference
// resolver's, and over the first analogueAnalyzedEvents events every
// analyzer of the config matrix — fed batches, and for Figure 7's config
// event by event too — ends with the reference analyzer's Result. The
// tables are private to each front-end, so the race detector has nothing
// to audit here, and it would stretch the test to minutes.
func TestPlanTableAnalogues(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("single-goroutine analysis of ten full traces; skipped under -race")
	}
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			rp := newResolverPair(t)
			ap := newAnalyzerPairs(t, planMatrix())
			batch := make([]trace.Event, 0, trace.DefaultBatchEvents)
			analyzed := 0
			flush := func() {
				if err := rp.events(batch); err != nil {
					t.Fatal(err)
				}
				if analyzed < analogueAnalyzedEvents {
					ap.events(batch)
					analyzed += len(batch)
				}
				batch = batch[:0]
			}
			sink := trace.SinkFunc(func(e *trace.Event) error {
				batch = append(batch, *e)
				if len(batch) == cap(batch) {
					flush()
				}
				return nil
			})
			if _, err := w.Run(1, minic.Options{}, sink, 0); err != nil {
				t.Fatal(err)
			}
			flush()
			rp.finish()
			ap.finish()
		})
	}
}

// checkAgainstReferences feeds events to both front-ends and their
// references, in one batch and in batches of three, and requires equal
// records, totals and Results.
func checkAgainstReferences(t *testing.T, events []trace.Event) {
	t.Helper()
	for _, size := range []int{len(events), 3} {
		rp := newResolverPair(t)
		ap := newAnalyzerPairs(t, planMatrix())
		for lo := 0; lo < len(events); lo += size {
			batch := events[lo:min(lo+size, len(events))]
			if err := rp.events(batch); err != nil {
				t.Fatal(err)
			}
			ap.events(batch)
		}
		rp.finish()
		ap.finish()
	}
}

// TestPlanTableTagMiss: a slot serves only the (PC, Instruction) it was
// planned for. Two instructions alternating on one slot, PCs 4 KiB apart,
// re-plan on every event; a PC whose instruction changes — opcode or only
// a register — re-plans when it does; and an empty slot does not pass for
// the zero instruction at PC 0, which is an add, not a NOP. Every plan get
// returns equals a fresh compile, and both front-ends match the references.
func TestPlanTableTagMiss(t *testing.T) {
	const pc = 0x400100
	far := uint32(pc + planSlots*4)
	addu := isa.Instruction{Op: isa.ADDU, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2}
	lw := isa.Instruction{Op: isa.LW, Rt: isa.T1, Rs: isa.T0, Imm: 8}
	changing := []trace.Event{
		{PC: pc + 8, Ins: isa.Instruction{Op: isa.SW, Rt: isa.T0, Rs: isa.SP, Imm: -4}, MemAddr: 0x7fff0010, MemSize: 4, Seg: trace.SegStack},
		{PC: pc + 8, Ins: isa.Instruction{Op: isa.SW, Rt: isa.T1, Rs: isa.SP, Imm: -4}, MemAddr: 0x7fff0010, MemSize: 4, Seg: trace.SegStack},
		{PC: pc + 8, Ins: isa.Instruction{Op: isa.BEQ, Rs: isa.T0, Rt: isa.Zero, Imm: -3}, Taken: true},
		{PC: pc + 8, Ins: isa.Instruction{Op: isa.BEQ, Rs: isa.T0, Rt: isa.Zero, Imm: 3}},
		{PC: pc + 8, Ins: isa.Instruction{Op: isa.JALR, Rd: isa.RA, Rs: isa.T3}},
		{PC: pc + 8, Ins: isa.Instruction{Op: isa.JALR, Rd: isa.Zero, Rs: isa.RA}},
		{PC: pc + 8, Ins: isa.Instruction{Op: isa.MULT, Rs: isa.T0, Rt: isa.T1}},
		{PC: pc + 8, Ins: isa.Instruction{Op: isa.MFHI, Rd: isa.T2}},
		{PC: pc + 8, Ins: isa.Instruction{Op: isa.SYSCALL}},
		{PC: pc + 8, Ins: isa.Instruction{Op: isa.NOP}},
		{PC: pc + 8, Ins: isa.Instruction{Op: isa.LDC1, Rt: isa.F0 + 2, Rs: isa.T0}, MemAddr: 0x10000020, MemSize: 8, Seg: trace.SegHeap},
	}
	events := []trace.Event{{}} // the zero instruction at PC 0: add $zero, $zero, $zero
	for i := 0; i < 3*len(changing); i++ {
		events = append(events,
			trace.Event{PC: pc, Ins: addu},
			trace.Event{PC: far, Ins: lw, MemAddr: 0x10000000 + 4*uint32(i%8), MemSize: 4, Seg: trace.SegData},
			changing[i%len(changing)])
	}

	var tbl planTable
	res := NewDeltaResolver(0, len(events))
	for i := range events {
		e := &events[i]
		p, err := tbl.get(e, uint64(i))
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		var want opPlan
		want.compile(e.PC, &e.Ins)
		if *p != want {
			t.Fatalf("event %d (pc %#x, %v): plan %+v, want %+v", i, e.PC, &e.Ins, *p, want)
		}
		// The resolver's plan for the event is the same compile, its slot
		// words filled from the resolver's register slots.
		if err := res.Event(e); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		got := res.plans[e.PC>>2%planSlots]
		if err := checkPlanSlots(res, &got); err != nil {
			t.Fatalf("event %d (pc %#x, %v): %v", i, e.PC, &e.Ins, err)
		}
		got.slots, got.slotted = [maxPlanRegs]uint32{}, false
		if got != want {
			t.Fatalf("event %d (pc %#x, %v): resolver plan %+v, want %+v", i, e.PC, &e.Ins, got, want)
		}
	}
	if p := tbl[0]; p.w0&7 != deltaKindPlace || p.class != isa.ClassIntALU {
		t.Fatalf("the zero instruction at pc 0 planned as kind %d class %v, want an int-alu placement", p.w0&7, p.class)
	}
	checkAgainstReferences(t, events)
}

// planRegs derives, from the instruction alone, the registers whose slot
// words a plan of ins keeps, in record order: a place record's sources and
// destinations and a branch's sources without $zero, a jump's
// return-address register with it.
func planRegs(ins *isa.Instruction) []isa.Reg {
	noZero := func(rs []isa.Reg) []isa.Reg {
		return slices.DeleteFunc(rs, func(r isa.Reg) bool { return r == isa.Zero })
	}
	info := ins.Op.Info()
	switch e := (trace.Event{Ins: *ins}); {
	case ins.Op == isa.NOP || e.IsSyscall():
		return nil
	case info.IsJump:
		if d, ok := ins.Dest(); ok {
			return []isa.Reg{d}
		}
		return nil
	case info.IsBranch:
		return noZero(ins.SourceRegs(nil))
	}
	return append(noZero(ins.SourceRegs(nil)), noZero(regDests(ins, nil))...)
}

// checkPlanSlots checks a plan r has executed: it counts the registers
// planRegs names, and its slot words are r's slots of those registers.
func checkPlanSlots(r *Resolver, p *opPlan) error {
	regs := planRegs(&p.ins)
	if !p.slotted {
		return fmt.Errorf("plan of %v executed but not slotted", &p.ins)
	}
	if p.regs() != len(regs) {
		return fmt.Errorf("plan of %v counts %d registers, want %v", &p.ins, p.regs(), regs)
	}
	for j, reg := range regs {
		if id := r.regSlot[reg]; id < 0 || p.slots[j] != uint32(id) {
			return fmt.Errorf("plan of %v keeps slot %d for %v, the resolver has %d", &p.ins, p.slots[j], reg, id)
		}
	}
	return nil
}

// TestPlanBadEventsNotStored: every validateEvent rejection reaches both
// front-ends as the identical error — the one validateEvent builds — with
// the records and state of the events before it intact, no plan is stored
// for an unknown opcode, and a valid event at the same PC then analyzes
// exactly as the references do.
func TestPlanBadEventsNotStored(t *testing.T) {
	const pc = 0x400200
	lw := trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.LW, Rt: isa.T0, Rs: isa.SP}, MemAddr: 0x10000010, MemSize: 4, Seg: trace.SegData}
	sw := trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SW, Rt: isa.T0, Rs: isa.SP}, MemAddr: 0x7fff0010, MemSize: 4, Seg: trace.SegStack}
	addu := trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.ADDU, Rd: isa.T1, Rs: isa.T0, Rt: isa.T0}}
	with := func(e trace.Event, f func(*trace.Event)) trace.Event { f(&e); return e }
	cases := []struct {
		name string
		bad  trace.Event
	}{
		{"unknown opcode", with(addu, func(e *trace.Event) { e.Ins.Op = isa.NumOps })},
		{"opcode 255", with(lw, func(e *trace.Event) { e.Ins.Op = 255 })},
		{"zero-size load", with(lw, func(e *trace.Event) { e.MemSize = 0 })},
		{"zero-size store", with(sw, func(e *trace.Event) { e.MemSize = 0 })},
		{"ALU op with an access", with(addu, func(e *trace.Event) { e.MemAddr, e.MemSize, e.Seg = 0x10000000, 4, trace.SegData })},
		{"load without a segment", with(lw, func(e *trace.Event) { e.Seg = trace.SegNone })},
		{"stack segment below the stack", with(lw, func(e *trace.Event) { e.Seg = trace.SegStack })},
		{"data segment inside the stack", with(sw, func(e *trace.Event) { e.Seg = trace.SegData })},
		{"load wrapping past 2^32", with(lw, func(e *trace.Event) { e.MemAddr, e.Seg = 0xfffffffe, trace.SegStack })},
		{"store wrapping past 2^32", with(sw, func(e *trace.Event) { e.MemAddr = 0xffffffff })},
	}
	prefix := []trace.Event{lw, {PC: pc + 4, Ins: isa.Instruction{Op: isa.ADDIU, Rt: isa.T0, Rs: isa.T0, Imm: 4}}, lw}
	suffix := []trace.Event{lw, addu, sw, lw}
	cfg := Config{Syscalls: SyscallConservative, Lifetimes: true, Sharing: true}
	for _, tc := range cases {
		seq := uint64(len(prefix))
		want := validateEvent(&tc.bad, seq)
		if want == nil {
			t.Fatalf("%s: validateEvent accepts the event", tc.name)
		}
		stream := append(slices.Clone(prefix), tc.bad)
		check := func(front string, err error) {
			t.Helper()
			if !reflect.DeepEqual(err, want) || !errors.Is(err, ErrBadEvent) {
				t.Fatalf("%s: %s returned %v, want %v", tc.name, front, err, want)
			}
		}

		perEvent := NewAnalyzer(cfg)
		var err error
		for i := range stream {
			if err = perEvent.Event(&stream[i]); err != nil {
				break
			}
		}
		check("Analyzer.Event", err)
		batch := NewAnalyzer(cfg)
		check("Analyzer.Events", batch.Events(stream))
		whole := NewResolver(cfg, func(*DepSegment) error { return nil })
		check("Resolver.Events", whole.Events(stream))
		delta := NewDeltaResolver(0, len(stream))
		for i := range stream {
			if err = delta.Event(&stream[i]); err != nil {
				break
			}
		}
		check("Resolver.Event", err)

		if tc.bad.Ins.Op >= isa.NumOps {
			for name, tbl := range map[string]*planTable{"analyzer": perEvent.res.plans, "resolver": delta.plans} {
				if p := tbl[pc>>2%planSlots]; !p.ok || p.ins != lw.Ins {
					t.Fatalf("%s: %s slot holds %+v after the bad event, want lw's plan", tc.name, name, p)
				}
			}
		}

		// A valid event at the same PC then analyzes and compiles as the
		// references do.
		good := append(slices.Clone(prefix), suffix...)
		ref := newRefAnalyzer(cfg)
		refDelta := &refResolver{Resolver: NewDeltaResolver(0, len(good))}
		for i := range good {
			if err := ref.Event(&good[i]); err != nil {
				t.Fatal(err)
			}
			if err := refDelta.Event(&good[i]); err != nil {
				t.Fatal(err)
			}
		}
		wantRes := ref.MustFinish()
		for _, a := range []*Analyzer{perEvent, batch} {
			if err := a.Events(suffix); err != nil {
				t.Fatalf("%s: valid events after the bad one: %v", tc.name, err)
			}
			if got := a.MustFinish(); !reflect.DeepEqual(got, wantRes) {
				t.Fatalf("%s: result %v, reference %v", tc.name, got, wantRes)
			}
		}
		if err := delta.Events(suffix); err != nil {
			t.Fatalf("%s: valid events after the bad one: %v", tc.name, err)
		}
		if got, want := delta.Delta(), refDelta.Delta(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: delta %+v, reference %+v", tc.name, got, want)
		}
	}
}

// TestPlanOperandsQuick: over random instructions — every opcode, with
// registers drawn to hit $zero and the HI/LO and FCC registers often — a
// plan counts the registers of SourceRegs and regDests with $zero dropped
// (a jump binds Dest's register, $zero included), once executed its slot
// words are the resolver's slots of exactly those registers, and a
// two-event trace of the instruction compiles and places exactly as the
// references do.
func TestPlanOperandsQuick(t *testing.T) {
	special := []isa.Reg{isa.Zero, isa.HI, isa.LO, isa.FCC, isa.RA}
	reg := func(b uint8) isa.Reg {
		if b&1 == 0 {
			return special[int(b>>1)%len(special)]
		}
		return isa.Reg(b>>1) % isa.NumRegs
	}
	prop := func(op, rd, rs, rt uint8, imm int16, taken bool) bool {
		ins := isa.Instruction{Op: isa.Op(op) % isa.NumOps, Rd: reg(rd), Rs: reg(rs), Rt: reg(rt), Imm: int32(imm)}
		var p opPlan
		p.compile(0x400000, &ins)
		if want := planRegs(&ins); p.regs() != len(want) || p.slotted {
			t.Logf("%v: plan counts %d registers (slotted %v), want %v unslotted", &ins, p.regs(), p.slotted, want)
			return false
		}
		info := ins.Op.Info()

		e := trace.Event{PC: 0x400000, Ins: ins, Taken: taken}
		if info.IsLoad || info.IsStore {
			e.MemAddr, e.MemSize, e.Seg = 0x10000100, uint8(info.MemSize), trace.SegData
		}
		events := []trace.Event{e, e}
		for _, cfg := range []Config{{Branches: BranchStall, Lifetimes: true, Sharing: true}, Dataflow(SyscallConservative)} {
			a, ref := NewAnalyzer(cfg), newRefAnalyzer(cfg)
			r, refR := NewDeltaResolver(0, 2), &refResolver{Resolver: NewDeltaResolver(0, 2)}
			for i := range events {
				if a.Event(&events[i]) != nil || ref.Event(&events[i]) != nil ||
					r.Event(&events[i]) != nil || refR.Event(&events[i]) != nil {
					return false
				}
			}
			if !reflect.DeepEqual(a.MustFinish(), ref.MustFinish()) || !reflect.DeepEqual(r.Delta(), refR.Delta()) {
				t.Logf("%v: front-ends differ from the references under %+v", &ins, cfg)
				return false
			}
			if err := checkPlanSlots(r, &r.plans[0x400000>>2%planSlots]); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanTableSize: a plan, its register slot words included, stays
// within 48 bytes, so a front-end's table stays within 48 KB.
func TestPlanTableSize(t *testing.T) {
	if size := unsafe.Sizeof(planTable{}); size > planSlots*48 {
		t.Fatalf("a plan table takes %d bytes, %d per plan", size, size/planSlots)
	}
}

// TestPlanCloneNotShared: analyzers restored from one checkpoint plan into
// tables of their own, so they can run on separate goroutines. Both are fed
// concurrently — under -race a shared table is a data race on every miss —
// and both end with the Result of the analyzer the checkpoint came from.
func TestPlanCloneNotShared(t *testing.T) {
	events := richTrace(rand.New(rand.NewSource(29)), 6000)
	for i := range events {
		// Spread the events over more PCs than slots, so the restored
		// analyzers keep missing, and writing, after the checkpoint.
		events[i].PC = 0x400000 + 4*uint32(i%(3*planSlots))
	}
	cfg := Config{RenameRegisters: true, Branches: BranchTwoBit, PredictorBits: 6, WindowSize: 32,
		FunctionalUnits: 3, Lifetimes: true, Sharing: true}
	half := len(events) / 2
	a := NewAnalyzer(cfg)
	if err := a.Events(events[:half]); err != nil {
		t.Fatal(err)
	}
	cp := a.Snapshot()
	restored := []*Analyzer{cp.Restore(), cp.Restore()}
	if cp.a.res.plans != nil || restored[0].res.plans != nil || restored[1].res.plans != nil {
		t.Fatal("a checkpoint or a restored analyzer carries a plan table")
	}
	results := make([]*Result, len(restored))
	errs := make([]error, len(restored))
	var wg sync.WaitGroup
	for i, b := range restored {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := half; j < len(events) && errs[i] == nil; j++ {
				errs[i] = b.Event(&events[j])
			}
			if errs[i] == nil {
				results[i], errs[i] = b.Finish()
			}
		}()
	}
	if err := a.Events(events[half:]); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	want := a.MustFinish()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("restored analyzer %d: %v", i, err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("restored analyzer %d: result %v, want %v", i, results[i], want)
		}
	}
	if restored[0].res.plans == restored[1].res.plans || restored[0].res.plans == a.res.plans {
		t.Fatal("restored analyzers share a plan table")
	}
}
