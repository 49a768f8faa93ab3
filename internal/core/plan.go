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
// the plan for every later event at the same PC: the dispatch kind, the
// class, the load and store flags, the register sources and destinations
// with $zero dropped, and the first word of the instruction's dependence
// record.
//
// Plans live in a direct-mapped table indexed by PC>>2 and tagged by the
// event's (PC, Instruction), like the trace reader's decoded-instruction
// table. A slot that holds another instruction — two PCs 4 KiB apart, or
// code rewritten in place — re-plans and refills; a plan is never stored
// for an opcode validateEvent rejects. A plan holds nothing a config
// decides — the replay takes latencies from the analyzer's own config — so
// one resolution serves every config.

// planSlots is the size of a plan table. The ten analogues execute 148-1018
// distinct PCs, so a table misses only on each instruction's first
// execution.
const planSlots = 1024

// Plan kinds: how the Resolver dispatches an event.
const (
	planSkip    = iota // NOP or destless jump: bookkeeping only
	planSyscall        // syscall: a firewall under the conservative policy
	planJump           // jump binding a return-address constant
	planBranch         // conditional branch
	planPlace          // ordinary placement (ALU, FP, load, store)
)

// opPlan is one slot of a plan table: what a static instruction fixes about
// every event that executes it. pc and ins are the tag; ok marks a filled
// slot, since a zero slot must not pass for a zero instruction at PC 0. A
// plan is 40 bytes, so a table is 40 KB.
type opPlan struct {
	pc  uint32
	ins isa.Instruction
	ok  bool

	kind  uint8
	class isa.OpClass
	load  bool
	store bool
	nsrc  uint8
	ndst  uint8
	// bind is a jump's return-address register. Unlike dst it keeps
	// $zero: binding the constant retires the register's old value, which
	// the lifetime and sharing statistics observe.
	bind isa.Reg
	src  [3]isa.Reg
	dst  [2]isa.Reg
	// w0 is the first word of the instruction's dependence record (see
	// delta.go): kind, opcode, the direction sign of a branch, the store
	// flag and the register arities. An event adds its outcome, its stack
	// flag and its memory words.
	w0 uint32
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
	if p.load || p.store {
		bad = e.MemSize == 0 || e.Seg == trace.SegNone || (e.Seg == trace.SegStack) != (e.MemAddr >= stackFloor)
	}
	if bad {
		return nil, validateEvent(e, seq)
	}
	return p, nil
}

// compile fills p with the plan of ins at pc. The dispatch order is the
// placement rule's: NOPs, then syscalls, jumps and branches are special
// cases, and everything else is placed.
func (p *opPlan) compile(pc uint32, ins *isa.Instruction) {
	info := ins.Op.Info()
	*p = opPlan{pc: pc, ins: *ins, ok: true, class: info.Class, load: info.IsLoad, store: info.IsStore}
	var buf [3]isa.Reg
	for _, r := range ins.SourceRegs(buf[:0]) {
		if r != isa.Zero { // hardwired zero: a constant, never a dependency
			p.src[p.nsrc] = r
			p.nsrc++
		}
	}
	for _, r := range regDests(ins, buf[:0]) {
		if r != isa.Zero {
			p.dst[p.ndst] = r
			p.ndst++
		}
	}

	w0 := uint32(ins.Op) << 8
	ev := trace.Event{Ins: *ins}
	switch {
	case ins.Op == isa.NOP:
		p.kind = planSkip
	case ev.IsSyscall():
		p.kind = planSyscall
		w0 |= deltaKindSyscall
	case info.IsJump:
		if d, ok := ins.Dest(); ok {
			p.kind, p.bind = planJump, d
			w0 |= deltaKindJump | 1<<24
		} else {
			p.kind = planSkip
		}
	case info.IsBranch:
		p.kind = planBranch
		w0 |= deltaKindBranch | uint32(p.nsrc)<<16
		if ins.Imm < 0 {
			w0 |= deltaFlagImmNeg
		}
	default:
		// nsrc and ndst fit a byte: at most 3 register sources and — MemSize
		// being a byte — at most 65 words per access. No store writes a
		// register, so one record's destinations share a class.
		p.kind = planPlace
		w0 |= deltaKindPlace | uint32(p.nsrc)<<16 | uint32(p.ndst)<<24
		if info.IsStore {
			w0 |= deltaFlagIsStore
		}
	}
	p.w0 = w0
}

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
