package core

import (
	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// Operand plans: of everything the Resolver reads from an event — opcode
// class, register operands, memory operands (DESIGN §2) — only the memory
// words, the stack flag and the branch outcome change between executions of
// one static instruction. The Resolver, which every Analyzer owns too,
// therefore compiles each static instruction once into an opPlan and reads
// the plan for every later event at the same PC: the class, the load flag,
// the first word of the instruction's dependence record — which carries the
// dispatch kind, the store flag and the register arities — and, from the
// instruction's first execution on, the register slot words themselves.
//
// Plans live in a direct-mapped table indexed by PC>>2 and tagged by the
// event's (PC, Instruction), like the trace reader's decoded-instruction
// table. A slot that holds another instruction — two PCs 4 KiB apart, or
// code rewritten in place — re-plans and refills; a plan is never stored
// for an opcode validateEvent rejects. A plan holds nothing a config
// decides — the replay takes latencies from the analyzer's own config — so
// one resolution serves every config.
//
// A plan's slot words belong to the resolver whose table holds it. A
// register's slot never moves once allocated (eviction frees only memory
// words), so the words stay valid for the resolver's lifetime. They are
// filled at the plan's first execution (Resolver.fillSlots), which resolves
// every operand in record order, so first-touch slot numbering is exactly
// what per-event resolution gives. A clone of a resolver starts with no
// plan table (Resolver.clone), and a restored analyzer builds a resolver of
// its own, so no plan outlives the slot numbering it was filled under.

// planSlots is the size of a plan table. The ten analogues execute 148-1018
// distinct PCs, so a table misses only on each instruction's first
// execution.
const planSlots = 1024

// maxPlanRegs bounds a record's register slot words: at most three register
// sources and two destinations (mult/div write HI and LO), a branch's
// sources, or a jump's bound register.
const maxPlanRegs = 5

// opPlan is one slot of a plan table: what a static instruction fixes about
// every event that executes it. pc and ins are the tag; ok marks a filled
// slot, since a zero slot must not pass for a zero instruction at PC 0. A
// plan is 48 bytes, so a table is 48 KB.
type opPlan struct {
	pc  uint32
	ins isa.Instruction
	// w0 is the first word of the instruction's dependence record (see
	// delta.go): kind, opcode, the direction sign of a branch, the store
	// flag and the register arities. An event adds its outcome, its stack
	// flag and its memory words.
	w0 uint32
	// slots holds the record's register slot words in record order once
	// slotted is set: a place record's sources then destinations, with
	// $zero dropped (a hardwired constant, never a dependence); a branch's
	// sources; a jump's return-address register, $zero kept, since binding
	// the constant retires the register's old value, which the lifetime
	// and sharing statistics observe.
	slots   [maxPlanRegs]uint32
	ok      bool
	slotted bool
	load    bool
	class   isa.OpClass
}

// planTable is a direct-mapped table of operand plans.
type planTable [planSlots]opPlan

// get returns the plan for e, compiling it on a miss, or the error
// validateEvent gives a malformed event; seq is e's trace position. The
// opcode is checked before a plan is stored, the memory shape on every
// event. The plan points into the table and is valid until the next get.
func (t *planTable) get(e *trace.Event, seq uint64) (*opPlan, error) {
	p := &t[e.PC>>2%planSlots]
	if !p.ok || p.pc != e.PC || p.ins != e.Ins {
		if e.Ins.Op >= isa.NumOps {
			return nil, validateEvent(e, seq)
		}
		p.compile(e.PC, &e.Ins)
	}
	bad := e.MemSize > 0
	if p.load || p.w0&deltaFlagIsStore != 0 {
		bad = e.MemSize == 0 || e.Seg == trace.SegNone || (e.Seg == trace.SegStack) != (e.MemAddr >= stackFloor) ||
			wrapsAddressSpace(e.MemAddr, e.MemSize)
	}
	if bad {
		return nil, validateEvent(e, seq)
	}
	return p, nil
}

// compile fills p with the plan of ins at pc, its slot words not yet
// filled. The dispatch order is the placement rule's: NOPs, then syscalls,
// jumps and branches are special cases, and everything else is placed.
func (p *opPlan) compile(pc uint32, ins *isa.Instruction) {
	info := ins.Op.Info()
	*p = opPlan{pc: pc, ins: *ins, ok: true, class: info.Class, load: info.IsLoad}
	var buf [3]isa.Reg
	nsrc, ndst := uint32(0), uint32(0)
	for _, r := range ins.SourceRegs(buf[:0]) {
		if r != isa.Zero {
			nsrc++
		}
	}
	for _, r := range regDests(ins, buf[:0]) {
		if r != isa.Zero {
			ndst++
		}
	}

	w0 := uint32(ins.Op) << 8
	ev := trace.Event{Ins: *ins}
	switch {
	case ins.Op == isa.NOP:
		// A skip record: deltaKindSkip is zero.
	case ev.IsSyscall():
		w0 |= deltaKindSyscall
	case info.IsJump:
		if _, ok := ins.Dest(); ok {
			w0 |= deltaKindJump | 1<<24
		} // else a skip record, like a NOP's
	case info.IsBranch:
		w0 |= deltaKindBranch | nsrc<<16
		if ins.Imm < 0 {
			w0 |= deltaFlagImmNeg
		}
	default:
		// nsrc and ndst fit a byte: at most 3 register sources and — MemSize
		// being a byte — at most 65 words per access. No store writes a
		// register, so one record's destinations share a class.
		w0 |= deltaKindPlace | nsrc<<16 | ndst<<24
		if info.IsStore {
			w0 |= deltaFlagIsStore
		}
	}
	p.w0 = w0
}

// regs returns how many register slot words p's records carry: the
// arities in its word0, which count only registers until an event adds its
// memory words.
func (p *opPlan) regs() int { return int((p.w0>>16)&0xff + p.w0>>24) }

// regDests appends the register destinations of the instruction (HI and LO
// both, for multiply/divide).
func regDests(ins *isa.Instruction, dst []isa.Reg) []isa.Reg {
	info := ins.Op.Info()
	switch {
	case info.WritesRd:
		dst = append(dst, ins.Rd)
	case info.WritesRt:
		dst = append(dst, ins.Rt)
	case info.WritesHILO:
		switch ins.Op {
		case isa.MTHI:
			dst = append(dst, isa.HI)
		case isa.MTLO:
			dst = append(dst, isa.LO)
		default: // mult/div write both halves
			dst = append(dst, isa.HI, isa.LO)
		}
	case info.WritesFCC:
		dst = append(dst, isa.FCC)
	}
	return dst
}
