// Package cpu implements a functional simulator for the ISA of package isa.
// It executes assembled programs (package asm) and emits the serial
// execution trace that the Paragraph analyzer consumes, playing the role
// Pixie played for the paper: the trace-producing substrate.
//
// The simulator is architectural, not micro-architectural: every instruction
// executes in one step and there are no caches or pipelines. That is exactly
// what the paper's methodology needs — Paragraph re-times operations itself
// using the Table-1 latencies while building the dynamic dependency graph,
// so the tracer only has to supply the serial instruction stream with
// operand addresses.
package cpu

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"

	"paragraph/internal/asm"
	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// haltAddress is the sentinel return address installed in $ra at startup;
// returning to it ends the program as if exit(0) had been called.
const haltAddress uint32 = 0xfffffff0

// stackRegionFloor: addresses at or above this are classified as stack
// segment accesses. The stack base is asm.StackBase (just below 2 GiB) and
// real stacks never grow anywhere near this floor.
const stackRegionFloor uint32 = 0x70000000

// ErrLimit is returned by Run when the instruction budget is exhausted
// before the program exits.
var ErrLimit = errors.New("cpu: instruction limit reached")

// Fault describes a runtime error in the simulated program.
type Fault struct {
	PC  uint32
	Msg string
}

func (f *Fault) Error() string { return fmt.Sprintf("cpu: fault at pc=%#x: %s", f.PC, f.Msg) }

// CPU is one simulated processor executing one program.
type CPU struct {
	prog *asm.Program
	text []isa.Instruction // pre-decoded text segment
	mem  *Memory

	intRegs [32]uint32
	fpRegs  [32]uint64 // raw float64 bits
	hi, lo  uint32
	fcc     bool
	pc      uint32

	heapBase uint32 // start of sbrk-managed memory
	brk      uint32 // current heap break

	icount      uint64
	classCounts [16]uint64
	exited      bool
	exitCode    int

	sink   trace.Sink
	ev     trace.Event // the event Step delivers; reused every instruction
	bbProf *BBProfile
	stdout io.Writer
	stdin  *bufio.Reader
}

// Option configures a CPU at construction time.
type Option func(*CPU)

// WithTrace attaches a trace sink; every executed instruction is reported to
// it as a trace.Event. The CPU owns that Event and refills it every step, so
// the pointer is valid only during the sink call: a sink that keeps an event
// must copy *e (see trace.Sink).
func WithTrace(s trace.Sink) Option { return func(c *CPU) { c.sink = s } }

// WithStdout redirects the simulated program's output (print syscalls).
func WithStdout(w io.Writer) Option { return func(c *CPU) { c.stdout = w } }

// WithStdin supplies input for the read syscalls.
func WithStdin(r io.Reader) Option { return func(c *CPU) { c.stdin = bufio.NewReader(r) } }

// WithBBProfile enables Pixie-style basic-block execution counting.
func WithBBProfile() Option { return func(c *CPU) { c.bbProf = newBBProfile(c.prog) } }

// New loads a program into a fresh machine. The data segment is copied into
// memory, the stack pointer set to asm.StackBase, $gp to the conventional
// data-segment window, and $ra to a halt sentinel so that returning from the
// entry function terminates cleanly.
func New(p *asm.Program, opts ...Option) (*CPU, error) {
	text := make([]isa.Instruction, len(p.Text))
	for i, w := range p.Text {
		ins, err := isa.Decode(w)
		if err != nil {
			return nil, fmt.Errorf("cpu: text word %d: %w", i, err)
		}
		text[i] = ins
	}
	heapBase := (p.DataEnd() + 7) &^ 7
	c := &CPU{
		prog:     p,
		text:     text,
		mem:      NewMemory(),
		pc:       p.Entry,
		heapBase: heapBase,
		brk:      heapBase,
		stdout:   io.Discard,
	}
	c.mem.WriteBytes(asm.DataBase, p.Data)
	c.intRegs[isa.SP] = asm.StackBase
	c.intRegs[isa.GP] = asm.DataBase + 0x8000
	c.intRegs[isa.RA] = haltAddress
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// PC returns the current program counter.
func (c *CPU) PC() uint32 { return c.pc }

// ICount returns the number of instructions executed so far.
func (c *CPU) ICount() uint64 { return c.icount }

// Exited reports whether the program has terminated, and with what code.
func (c *CPU) Exited() (bool, int) { return c.exited, c.exitCode }

// Reg returns the value of an integer register.
func (c *CPU) Reg(r isa.Reg) uint32 {
	if !r.IsInt() {
		panic(fmt.Sprintf("cpu: Reg(%v) is not an integer register", r))
	}
	return c.intRegs[r]
}

// SetReg sets an integer register (used by tests and harnesses to pass
// arguments).
func (c *CPU) SetReg(r isa.Reg, v uint32) {
	if !r.IsInt() {
		panic(fmt.Sprintf("cpu: SetReg(%v) is not an integer register", r))
	}
	if r != isa.Zero {
		c.intRegs[r] = v
	}
}

// FPReg returns the float64 value of an FP register.
func (c *CPU) FPReg(r isa.Reg) float64 {
	if !r.IsFP() {
		panic(fmt.Sprintf("cpu: FPReg(%v) is not an FP register", r))
	}
	return math.Float64frombits(c.fpRegs[r-isa.F0])
}

// Mem exposes the address space (tests, syscall-free I/O of results).
func (c *CPU) Mem() *Memory { return c.mem }

// ClassCounts returns per-OpClass dynamic instruction counts.
func (c *CPU) ClassCounts() map[isa.OpClass]uint64 {
	out := make(map[isa.OpClass]uint64)
	for cls, n := range c.classCounts {
		if n > 0 {
			out[isa.OpClass(cls)] = n
		}
	}
	return out
}

// BBProfile returns the basic-block profile, or nil if not enabled.
func (c *CPU) BBProfile() *BBProfile { return c.bbProf }

// Run executes until the program exits, max instructions have retired
// (0 = no limit), a fault occurs, or the trace sink returns an error.
// It returns the number of instructions executed by this call. When the
// limit stops execution the error is ErrLimit; a clean program exit returns
// a nil error.
func (c *CPU) Run(max uint64) (uint64, error) {
	start := c.icount
	for !c.exited {
		if max != 0 && c.icount-start >= max {
			return c.icount - start, ErrLimit
		}
		if err := c.Step(); err != nil {
			return c.icount - start, err
		}
	}
	return c.icount - start, nil
}

// Step executes a single instruction.
func (c *CPU) Step() error {
	if c.exited {
		return errors.New("cpu: program has exited")
	}
	pc := c.pc
	if pc == haltAddress {
		c.exited = true
		c.exitCode = 0
		return nil
	}
	idx := (pc - asm.TextBase) / 4
	if pc < asm.TextBase || pc&3 != 0 || idx >= uint32(len(c.text)) {
		return &Fault{PC: pc, Msg: "instruction fetch outside text segment"}
	}
	ins := &c.text[idx]
	info := ins.Op.Info()

	// Reset the CPU-owned event in full, so nothing a sink did to the
	// previous one can leak into this one. A local would escape through
	// the Sink interface: one heap allocation per instruction. Field by
	// field, because a composite literal is built on the stack and copied
	// back with loads that straddle its stores, which stalls the CPU's
	// store forwarding on every step.
	ev := &c.ev
	ev.PC = pc
	ev.Ins = *ins
	ev.MemAddr = 0
	ev.MemSize = 0
	ev.Seg = trace.SegNone
	ev.Taken = false
	nextPC := pc + 4

	switch ins.Op {
	case isa.NOP:
		// nothing
	case isa.ADD, isa.ADDU:
		c.setInt(ins.Rd, c.intRegs[ins.Rs]+c.intRegs[ins.Rt])
	case isa.SUB, isa.SUBU:
		c.setInt(ins.Rd, c.intRegs[ins.Rs]-c.intRegs[ins.Rt])
	case isa.AND:
		c.setInt(ins.Rd, c.intRegs[ins.Rs]&c.intRegs[ins.Rt])
	case isa.OR:
		c.setInt(ins.Rd, c.intRegs[ins.Rs]|c.intRegs[ins.Rt])
	case isa.XOR:
		c.setInt(ins.Rd, c.intRegs[ins.Rs]^c.intRegs[ins.Rt])
	case isa.NOR:
		c.setInt(ins.Rd, ^(c.intRegs[ins.Rs] | c.intRegs[ins.Rt]))
	case isa.SLT:
		c.setInt(ins.Rd, boolToReg(int32(c.intRegs[ins.Rs]) < int32(c.intRegs[ins.Rt])))
	case isa.SLTU:
		c.setInt(ins.Rd, boolToReg(c.intRegs[ins.Rs] < c.intRegs[ins.Rt]))
	case isa.SLL:
		c.setInt(ins.Rd, c.intRegs[ins.Rt]<<ins.Shamt)
	case isa.SRL:
		c.setInt(ins.Rd, c.intRegs[ins.Rt]>>ins.Shamt)
	case isa.SRA:
		c.setInt(ins.Rd, uint32(int32(c.intRegs[ins.Rt])>>ins.Shamt))
	case isa.SLLV:
		c.setInt(ins.Rd, c.intRegs[ins.Rt]<<(c.intRegs[ins.Rs]&31))
	case isa.SRLV:
		c.setInt(ins.Rd, c.intRegs[ins.Rt]>>(c.intRegs[ins.Rs]&31))
	case isa.SRAV:
		c.setInt(ins.Rd, uint32(int32(c.intRegs[ins.Rt])>>(c.intRegs[ins.Rs]&31)))
	case isa.MULT:
		prod := int64(int32(c.intRegs[ins.Rs])) * int64(int32(c.intRegs[ins.Rt]))
		c.lo, c.hi = uint32(prod), uint32(prod>>32)
	case isa.MULTU:
		prod := uint64(c.intRegs[ins.Rs]) * uint64(c.intRegs[ins.Rt])
		c.lo, c.hi = uint32(prod), uint32(prod>>32)
	case isa.DIV:
		num, den := int32(c.intRegs[ins.Rs]), int32(c.intRegs[ins.Rt])
		if den == 0 {
			// Real MIPS leaves HI/LO unpredictable; we define the
			// result so executions are deterministic.
			c.lo, c.hi = 0, uint32(num)
		} else if num == math.MinInt32 && den == -1 {
			c.lo, c.hi = uint32(num), 0
		} else {
			c.lo, c.hi = uint32(num/den), uint32(num%den)
		}
	case isa.DIVU:
		num, den := c.intRegs[ins.Rs], c.intRegs[ins.Rt]
		if den == 0 {
			c.lo, c.hi = 0, num
		} else {
			c.lo, c.hi = num/den, num%den
		}
	case isa.MFHI:
		c.setInt(ins.Rd, c.hi)
	case isa.MFLO:
		c.setInt(ins.Rd, c.lo)
	case isa.MTHI:
		c.hi = c.intRegs[ins.Rs]
	case isa.MTLO:
		c.lo = c.intRegs[ins.Rs]

	case isa.ADDI, isa.ADDIU:
		c.setInt(ins.Rt, c.intRegs[ins.Rs]+uint32(ins.Imm))
	case isa.SLTI:
		c.setInt(ins.Rt, boolToReg(int32(c.intRegs[ins.Rs]) < ins.Imm))
	case isa.SLTIU:
		c.setInt(ins.Rt, boolToReg(c.intRegs[ins.Rs] < uint32(ins.Imm)))
	case isa.ANDI:
		c.setInt(ins.Rt, c.intRegs[ins.Rs]&uint32(uint16(ins.Imm)))
	case isa.ORI:
		c.setInt(ins.Rt, c.intRegs[ins.Rs]|uint32(uint16(ins.Imm)))
	case isa.XORI:
		c.setInt(ins.Rt, c.intRegs[ins.Rs]^uint32(uint16(ins.Imm)))
	case isa.LUI:
		c.setInt(ins.Rt, uint32(uint16(ins.Imm))<<16)

	case isa.LB:
		addr := c.ea(ins)
		c.fillMemEvent(ev, addr, 1)
		c.setInt(ins.Rt, uint32(int32(int8(c.mem.LoadByte(addr)))))
	case isa.LBU:
		addr := c.ea(ins)
		c.fillMemEvent(ev, addr, 1)
		c.setInt(ins.Rt, uint32(c.mem.LoadByte(addr)))
	case isa.LH:
		addr := c.ea(ins)
		c.fillMemEvent(ev, addr, 2)
		c.setInt(ins.Rt, uint32(int32(int16(c.mem.ReadHalf(addr)))))
	case isa.LHU:
		addr := c.ea(ins)
		c.fillMemEvent(ev, addr, 2)
		c.setInt(ins.Rt, uint32(c.mem.ReadHalf(addr)))
	case isa.LW:
		addr := c.ea(ins)
		c.fillMemEvent(ev, addr, 4)
		c.setInt(ins.Rt, c.mem.ReadWord(addr))
	case isa.SB:
		addr := c.ea(ins)
		c.fillMemEvent(ev, addr, 1)
		c.mem.StoreByte(addr, byte(c.intRegs[ins.Rt]))
	case isa.SH:
		addr := c.ea(ins)
		c.fillMemEvent(ev, addr, 2)
		c.mem.WriteHalf(addr, uint16(c.intRegs[ins.Rt]))
	case isa.SW:
		addr := c.ea(ins)
		c.fillMemEvent(ev, addr, 4)
		c.mem.WriteWord(addr, c.intRegs[ins.Rt])
	case isa.LDC1:
		addr := c.ea(ins)
		c.fillMemEvent(ev, addr, 8)
		c.fpRegs[ins.Rt-isa.F0] = c.mem.ReadDouble(addr)
	case isa.SDC1:
		addr := c.ea(ins)
		c.fillMemEvent(ev, addr, 8)
		c.mem.WriteDouble(addr, c.fpRegs[ins.Rt-isa.F0])

	case isa.J:
		nextPC = ins.Target << 2
		ev.Taken = true
	case isa.JAL:
		c.setInt(isa.RA, pc+4)
		nextPC = ins.Target << 2
		ev.Taken = true
	case isa.JR:
		nextPC = c.intRegs[ins.Rs]
		ev.Taken = true
	case isa.JALR:
		target := c.intRegs[ins.Rs]
		c.setInt(ins.Rd, pc+4)
		nextPC = target
		ev.Taken = true
	case isa.BEQ:
		if c.intRegs[ins.Rs] == c.intRegs[ins.Rt] {
			nextPC = branchTarget(pc, ins.Imm)
			ev.Taken = true
		}
	case isa.BNE:
		if c.intRegs[ins.Rs] != c.intRegs[ins.Rt] {
			nextPC = branchTarget(pc, ins.Imm)
			ev.Taken = true
		}
	case isa.BLEZ:
		if int32(c.intRegs[ins.Rs]) <= 0 {
			nextPC = branchTarget(pc, ins.Imm)
			ev.Taken = true
		}
	case isa.BGTZ:
		if int32(c.intRegs[ins.Rs]) > 0 {
			nextPC = branchTarget(pc, ins.Imm)
			ev.Taken = true
		}
	case isa.BLTZ:
		if int32(c.intRegs[ins.Rs]) < 0 {
			nextPC = branchTarget(pc, ins.Imm)
			ev.Taken = true
		}
	case isa.BGEZ:
		if int32(c.intRegs[ins.Rs]) >= 0 {
			nextPC = branchTarget(pc, ins.Imm)
			ev.Taken = true
		}

	case isa.ADDD:
		c.setFP(ins.Rd, c.fp(ins.Rs)+c.fp(ins.Rt))
	case isa.SUBD:
		c.setFP(ins.Rd, c.fp(ins.Rs)-c.fp(ins.Rt))
	case isa.MULD:
		c.setFP(ins.Rd, c.fp(ins.Rs)*c.fp(ins.Rt))
	case isa.DIVD:
		c.setFP(ins.Rd, c.fp(ins.Rs)/c.fp(ins.Rt))
	case isa.ABSD:
		c.setFP(ins.Rd, math.Abs(c.fp(ins.Rs)))
	case isa.NEGD:
		c.setFP(ins.Rd, -c.fp(ins.Rs))
	case isa.MOVD:
		c.fpRegs[ins.Rd-isa.F0] = c.fpRegs[ins.Rs-isa.F0]
	case isa.CVTDW:
		c.setFP(ins.Rd, float64(int32(uint32(c.fpRegs[ins.Rs-isa.F0]))))
	case isa.CVTWD:
		c.fpRegs[ins.Rd-isa.F0] = uint64(uint32(int32(c.fp(ins.Rs))))
	case isa.CEQD:
		c.fcc = c.fp(ins.Rs) == c.fp(ins.Rt)
	case isa.CLTD:
		c.fcc = c.fp(ins.Rs) < c.fp(ins.Rt)
	case isa.CLED:
		c.fcc = c.fp(ins.Rs) <= c.fp(ins.Rt)
	case isa.BC1T:
		if c.fcc {
			nextPC = branchTarget(pc, ins.Imm)
			ev.Taken = true
		}
	case isa.BC1F:
		if !c.fcc {
			nextPC = branchTarget(pc, ins.Imm)
			ev.Taken = true
		}
	case isa.MFC1:
		c.setInt(ins.Rt, uint32(c.fpRegs[ins.Rs-isa.F0]))
	case isa.MTC1:
		c.fpRegs[ins.Rd-isa.F0] = uint64(c.intRegs[ins.Rt])

	case isa.SYSCALL:
		if err := c.syscall(); err != nil {
			return err
		}
	case isa.BREAK:
		return &Fault{PC: pc, Msg: "break instruction"}
	default:
		return &Fault{PC: pc, Msg: fmt.Sprintf("unimplemented op %v", ins.Op)}
	}

	c.icount++
	c.classCounts[info.Class]++
	if c.bbProf != nil {
		c.bbProf.note(pc)
	}
	if c.sink != nil {
		if err := c.sink.Event(ev); err != nil {
			return fmt.Errorf("cpu: trace sink: %w", err)
		}
	}
	c.pc = nextPC
	return nil
}

// ea computes the effective address of a load or store.
func (c *CPU) ea(ins *isa.Instruction) uint32 {
	return c.intRegs[ins.Rs] + uint32(ins.Imm)
}

// fillMemEvent records the memory access in the trace event, classifying the
// address into the paper's stack / non-stack segments.
func (c *CPU) fillMemEvent(ev *trace.Event, addr uint32, size uint8) {
	ev.MemAddr = addr
	ev.MemSize = size
	switch {
	case addr >= stackRegionFloor:
		ev.Seg = trace.SegStack
	case addr >= c.heapBase:
		ev.Seg = trace.SegHeap
	default:
		ev.Seg = trace.SegData
	}
}

func (c *CPU) setInt(r isa.Reg, v uint32) {
	if r != isa.Zero {
		c.intRegs[r] = v
	}
}

func (c *CPU) fp(r isa.Reg) float64 { return math.Float64frombits(c.fpRegs[r-isa.F0]) }

func (c *CPU) setFP(r isa.Reg, v float64) { c.fpRegs[r-isa.F0] = math.Float64bits(v) }

func branchTarget(pc uint32, imm int32) uint32 { return pc + 4 + uint32(imm)*4 }

func boolToReg(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
