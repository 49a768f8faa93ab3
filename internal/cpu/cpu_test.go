package cpu

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"paragraph/internal/asm"
	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// run assembles and executes src to completion, returning the CPU.
func run(t *testing.T, src string, opts ...Option) *CPU {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c, err := New(p, opts...)
	if err != nil {
		t.Fatalf("new cpu: %v", err)
	}
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

func TestArithmetic(t *testing.T) {
	c := run(t, `
        .text
main:   li   $t0, 21
        li   $t1, 2
        mul  $t2, $t0, $t1      # 42
        sub  $t3, $t2, $t1      # 40
        addi $t4, $t3, -40      # 0
        li   $t5, -8
        sra  $t6, $t5, 1        # -4
        srl  $t7, $t5, 28       # 0xf
        li   $s0, 100
        li   $s1, 7
        div  $s0, $s1           # lo=14 hi=2
        mflo $s2
        mfhi $s3
        slt  $s4, $t1, $t0      # 1
        sltu $s5, $t0, $t1      # 0
        jr   $ra
`)
	checks := map[isa.Reg]uint32{
		isa.T2: 42, isa.T3: 40, isa.T4: 0,
		isa.T6: ^uint32(3), isa.T7: 0xf, // -4
		isa.S2: 14, isa.S3: 2, isa.S4: 1, isa.S5: 0,
	}
	for r, want := range checks {
		if got := c.Reg(r); got != want {
			t.Errorf("%v = %d, want %d", r, int32(got), int32(want))
		}
	}
}

func TestLogicAndShiftVariable(t *testing.T) {
	c := run(t, `
        .text
main:   li   $t0, 0xff00
        li   $t1, 0x0ff0
        and  $t2, $t0, $t1      # 0x0f00
        or   $t3, $t0, $t1      # 0xfff0
        xor  $t4, $t0, $t1      # 0xf0f0
        nor  $t5, $t0, $t1      # ^0xfff0
        li   $t6, 3
        sllv $t7, $t1, $t6      # 0x7f80
        srlv $s0, $t1, $t6      # 0x01fe
        jr   $ra
`)
	checks := map[isa.Reg]uint32{
		isa.T2: 0x0f00, isa.T3: 0xfff0, isa.T4: 0xf0f0,
		isa.T5: ^uint32(0xfff0), isa.T7: 0x7f80, isa.S0: 0x01fe,
	}
	for r, want := range checks {
		if got := c.Reg(r); got != want {
			t.Errorf("%v = %#x, want %#x", r, got, want)
		}
	}
}

func TestMemoryOps(t *testing.T) {
	c := run(t, `
        .data
w:      .word 0x11223344
b:      .byte 0x80
h:      .half 0x8000
        .text
main:   lw   $t0, w
        lb   $t1, b             # sign-extends to -128
        lbu  $t2, b             # 128
        lh   $t3, h             # -32768
        lhu  $t4, h             # 32768
        li   $t5, 0xdeadbeef
        sw   $t5, w
        lw   $t6, w
        sb   $t5, b
        lbu  $t7, b             # 0xef
        addiu $sp, $sp, -8
        sw   $t0, 4($sp)
        lw   $s0, 4($sp)
        jr   $ra
`)
	checks := map[isa.Reg]uint32{
		isa.T0: 0x11223344,
		isa.T1: ^uint32(127), // -128
		isa.T2: 128,
		isa.T3: ^uint32(32767), // -32768
		isa.T4: 32768,
		isa.T6: 0xdeadbeef,
		isa.T7: 0xef,
		isa.S0: 0x11223344,
	}
	for r, want := range checks {
		if got := c.Reg(r); got != want {
			t.Errorf("%v = %#x, want %#x", r, got, want)
		}
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 with a loop.
	c := run(t, `
        .text
main:   li   $t0, 10
        li   $t1, 0
loop:   add  $t1, $t1, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        jr   $ra
`)
	if got := c.Reg(isa.T1); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestProcedureCall(t *testing.T) {
	// Recursive factorial(6) = 720 using the stack.
	c := run(t, `
        .text
main:   li   $a0, 6
        jal  fact
        move $s0, $v0
        li   $v0, 10
        syscall

fact:   addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        sw   $a0, 0($sp)
        li   $v0, 1
        blez $a0, done
        addi $a0, $a0, -1
        jal  fact
        lw   $a0, 0($sp)
        mul  $v0, $v0, $a0
done:   lw   $ra, 4($sp)
        addiu $sp, $sp, 8
        jr   $ra
`)
	if got := c.Reg(isa.S0); got != 720 {
		t.Errorf("fact(6) = %d, want 720", got)
	}
}

func TestFloatingPoint(t *testing.T) {
	c := run(t, `
        .data
x:      .double 2.0
        .text
main:   ldc1  $f0, x
        li.d  $f2, 3.0
        add.d $f4, $f0, $f2     # 5.0
        mul.d $f6, $f4, $f4     # 25.0
        sub.d $f8, $f6, $f0     # 23.0
        div.d $f10, $f8, $f2    # 23/3
        neg.d $f12, $f10
        abs.d $f14, $f12
        li    $t0, 7
        mtc1  $t0, $f16
        cvt.d.w $f16, $f16      # 7.0
        cvt.w.d $f18, $f4       # 5
        mfc1  $t1, $f18
        c.lt.d $f0, $f2         # true
        bc1t  istrue
        li    $t2, 0
        b     out
istrue: li    $t2, 1
out:    jr    $ra
`)
	if got := c.FPReg(isa.FPReg(4)); got != 5.0 {
		t.Errorf("add.d = %v", got)
	}
	if got := c.FPReg(isa.FPReg(6)); got != 25.0 {
		t.Errorf("mul.d = %v", got)
	}
	if got := c.FPReg(isa.FPReg(10)); math.Abs(got-23.0/3.0) > 1e-15 {
		t.Errorf("div.d = %v", got)
	}
	if got := c.FPReg(isa.FPReg(14)); got != 23.0/3.0 {
		t.Errorf("abs(neg) = %v", got)
	}
	if got := c.FPReg(isa.FPReg(16)); got != 7.0 {
		t.Errorf("cvt.d.w = %v", got)
	}
	if got := c.Reg(isa.T1); got != 5 {
		t.Errorf("cvt.w.d/mfc1 = %d", got)
	}
	if got := c.Reg(isa.T2); got != 1 {
		t.Errorf("c.lt.d/bc1t path = %d", got)
	}
}

func TestNewtonSqrt(t *testing.T) {
	// sqrt(2) via 20 Newton iterations: x' = (x + 2/x) / 2.
	c := run(t, `
        .text
main:   li.d $f0, 2.0
        li.d $f2, 1.0           # x
        li.d $f4, 2.0           # divisor constant
        li   $t0, 20
loop:   div.d $f6, $f0, $f2
        add.d $f6, $f6, $f2
        div.d $f2, $f6, $f4
        addi $t0, $t0, -1
        bgtz $t0, loop
        jr   $ra
`)
	if got := c.FPReg(isa.FPReg(2)); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("sqrt(2) = %v", got)
	}
}

func TestSyscallsOutput(t *testing.T) {
	var out bytes.Buffer
	run(t, `
        .data
msg:    .asciiz "n="
        .text
main:   li $v0, 4
        la $a0, msg
        syscall
        li $v0, 1
        li $a0, -7
        syscall
        li $v0, 11
        li $a0, 10              # '\n'
        syscall
        li.d $f12, 1.25
        li $v0, 3
        syscall
        li $v0, 10
        syscall
`, WithStdout(&out))
	if got := out.String(); got != "n=-7\n1.25" {
		t.Errorf("output = %q", got)
	}
}

func TestSyscallReadInt(t *testing.T) {
	c := run(t, `
        .text
main:   li $v0, 5
        syscall
        move $s0, $v0
        jr $ra
`, WithStdin(strings.NewReader("123")))
	if got := c.Reg(isa.S0); got != 123 {
		t.Errorf("read_int = %d", got)
	}
}

func TestSbrk(t *testing.T) {
	c := run(t, `
        .data
        .space 12
        .text
main:   li $v0, 9
        li $a0, 100
        syscall
        move $s0, $v0
        li $v0, 9
        li $a0, 8
        syscall
        move $s1, $v0
        sw $s0, 0($s0)          # heap is writable
        lw $s2, 0($s0)
        jr $ra
`)
	first := c.Reg(isa.S0)
	second := c.Reg(isa.S1)
	if first < asm.DataBase {
		t.Errorf("sbrk returned %#x below data base", first)
	}
	if second != first+104 { // 100 rounded to 104
		t.Errorf("second sbrk = %#x, want %#x", second, first+104)
	}
	if c.Reg(isa.S2) != first {
		t.Errorf("heap readback = %#x", c.Reg(isa.S2))
	}
}

func TestExitCode(t *testing.T) {
	c := run(t, `
        .text
main:   li $v0, 17
        li $a0, 42
        syscall
`)
	exited, code := c.Exited()
	if !exited || code != 42 {
		t.Errorf("exit = %v, %d; want true, 42", exited, code)
	}
}

func TestTraceEvents(t *testing.T) {
	var events []trace.Event
	sink := trace.SinkFunc(func(e *trace.Event) error {
		events = append(events, *e)
		return nil
	})
	run(t, `
        .data
v:      .word 5
        .text
main:   lw   $t0, v
        addiu $sp, $sp, -4
        sw   $t0, 0($sp)
        beq  $t0, $zero, skip
        addi $t1, $t0, 1
skip:   jr   $ra
`, WithTrace(sink))

	// Expect: lui, lw, addiu(sp), sw, beq(not taken), addi, jr.
	if len(events) != 7 {
		t.Fatalf("got %d events: %v", len(events), events)
	}
	lw := events[1]
	if lw.Ins.Op != isa.LW || lw.Seg != trace.SegData || lw.MemSize != 4 {
		t.Errorf("lw event = %+v", lw)
	}
	sw := events[3]
	if sw.Ins.Op != isa.SW || sw.Seg != trace.SegStack {
		t.Errorf("sw event = %+v", sw)
	}
	if events[4].Ins.Op != isa.BEQ || events[4].Taken {
		t.Errorf("beq event = %+v", events[4])
	}
	if events[6].Ins.Op != isa.JR || !events[6].Taken {
		t.Errorf("jr event = %+v", events[6])
	}
}

// countLoop runs $a0 iterations of four instructions: a stack store and
// load, an add and a taken branch, so every event kind that fills memory
// or branch fields is on the path.
const countLoop = `
        .text
main:   addiu $sp, $sp, -8
loop:   sw    $a0, 0($sp)
        lw    $t0, 0($sp)
        addiu $a0, $t0, -1
        bne   $a0, $zero, loop
        addiu $sp, $sp, 8
        jr    $ra
`

// TestStepAllocationFree is the allocation gate of the simulator: the heap
// allocations of a whole run (New included) must not grow with the number
// of instructions executed, with or without a sink. One allocation per
// instruction shows up as ~90k extra between the two sizes.
func TestStepAllocationFree(t *testing.T) {
	p, err := asm.Assemble(countLoop)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts func() []Option
	}{
		{"nosink", func() []Option { return nil }},
		{"counter", func() []Option { return []Option{WithTrace(&trace.Counter{})} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(iters uint32) float64 {
				return testing.AllocsPerRun(3, func() {
					c, err := New(p, append(tc.opts(), withA0(iters))...)
					if err != nil {
						t.Fatal(err)
					}
					n, err := c.Run(0)
					if err != nil || n != 4*uint64(iters)+3 {
						t.Fatalf("ran %d instructions (err %v), want %d", n, err, 4*iters+3)
					}
				})
			}
			small, large := allocs(2_500), allocs(25_000)
			if large > small+8 {
				t.Errorf("allocations grow with instructions: %.0f at ~10k, %.0f at ~100k", small, large)
			}
		})
	}
}

// TestStepResetsEvent: the CPU reuses one Event for every step, so a sink
// that scribbles over the event it was handed must not change what the
// next instruction delivers.
func TestStepResetsEvent(t *testing.T) {
	collect := func(scribble bool) []trace.Event {
		var events []trace.Event
		c := run(t, countLoop, WithTrace(trace.SinkFunc(func(e *trace.Event) error {
			events = append(events, *e)
			if scribble {
				*e = trace.Event{PC: 1, Ins: isa.Instruction{Op: isa.BREAK, Imm: 7},
					MemAddr: 0xdead, MemSize: 8, Seg: trace.SegHeap, Taken: true}
			}
			return nil
		})), withA0(3))
		if uint64(len(events)) != c.ICount() {
			t.Fatalf("%d events for %d instructions", len(events), c.ICount())
		}
		return events
	}
	clean, scribbled := collect(false), collect(true)
	if len(clean) != len(scribbled) {
		t.Fatalf("%d vs %d events", len(clean), len(scribbled))
	}
	for i := range clean {
		if clean[i] != scribbled[i] {
			t.Fatalf("event %d: %+v after a mutating sink, want %+v", i, scribbled[i], clean[i])
		}
	}
}

// withA0 sets $a0 before the run, as a harness passes an argument.
func withA0(v uint32) Option { return func(c *CPU) { c.SetReg(isa.A0, v) } }

// TestFaultDeliversNothing: an instruction that faults is not delivered to
// the sink; every delivered event is a retired instruction.
func TestFaultDeliversNothing(t *testing.T) {
	for _, src := range []string{
		".text\nmain: nop\n nop\n break\n",
		".text\nmain: nop\n li $v0, 999\n syscall\n",
	} {
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		var events []trace.Event
		c, err := New(p, WithTrace(trace.SinkFunc(func(e *trace.Event) error {
			events = append(events, *e)
			return nil
		})))
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Run(100)
		var fault *Fault
		if !errors.As(err, &fault) {
			t.Fatalf("%q: err = %v, want *Fault", src, err)
		}
		if uint64(len(events)) != c.ICount() {
			t.Errorf("%q: %d events for %d retired instructions", src, len(events), c.ICount())
		}
		for _, e := range events {
			if e.PC == fault.PC {
				t.Errorf("%q: faulting instruction at %#x was delivered", src, fault.PC)
			}
		}
	}
}

// TestSinkErrorStopsAtInstruction: the CPU stops at the instruction whose
// sink call failed; the PC stays on it and the error wraps the sink's.
func TestSinkErrorStopsAtInstruction(t *testing.T) {
	p, err := asm.Assemble(countLoop)
	if err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("stop")
	var last trace.Event
	seen := 0
	c, err := New(p, withA0(10), WithTrace(trace.SinkFunc(func(e *trace.Event) error {
		seen++
		last = *e
		if seen == 7 {
			return errStop
		}
		return nil
	})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(0); !errors.Is(err, errStop) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if seen != 7 || c.ICount() != 7 || c.PC() != last.PC {
		t.Errorf("stopped after %d events, icount %d, pc %#x; want 7, 7, %#x", seen, c.ICount(), c.PC(), last.PC)
	}
}

func TestHeapSegmentClassification(t *testing.T) {
	var heapStores int
	sink := trace.SinkFunc(func(e *trace.Event) error {
		if e.Ins.Op == isa.SW && e.Seg == trace.SegHeap {
			heapStores++
		}
		return nil
	})
	run(t, `
        .text
main:   li $v0, 9
        li $a0, 16
        syscall
        sw $v0, 0($v0)
        sw $v0, 4($v0)
        jr $ra
`, WithTrace(sink))
	if heapStores != 2 {
		t.Errorf("heap stores = %d, want 2", heapStores)
	}
}

func TestInstructionLimit(t *testing.T) {
	p, err := asm.Assemble(".text\nmain: b main\n")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.Run(100)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	if n != 100 {
		t.Errorf("executed %d, want 100", n)
	}
}

func TestFetchFault(t *testing.T) {
	p, err := asm.Assemble(".text\nmain: li $t0, 0\n jr $t0\n nop\n")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(100)
	var fault *Fault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want *Fault", err)
	}
}

func TestUnknownSyscallFault(t *testing.T) {
	p, _ := asm.Assemble(".text\nmain: li $v0, 999\n syscall\n")
	c, _ := New(p)
	_, err := c.Run(100)
	var fault *Fault
	if !errors.As(err, &fault) || !strings.Contains(fault.Msg, "syscall") {
		t.Fatalf("err = %v, want syscall fault", err)
	}
}

func TestDivByZeroDeterministic(t *testing.T) {
	c := run(t, `
        .text
main:   li  $t0, 9
        li  $t1, 0
        div $t0, $t1
        mflo $s0
        mfhi $s1
        jr  $ra
`)
	if c.Reg(isa.S0) != 0 || c.Reg(isa.S1) != 9 {
		t.Errorf("div-by-zero: lo=%d hi=%d, want 0, 9", c.Reg(isa.S0), c.Reg(isa.S1))
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	c := run(t, `
        .text
main:   li   $t0, 7
        add  $zero, $t0, $t0
        move $t1, $zero
        jr   $ra
`)
	if got := c.Reg(isa.T1); got != 0 {
		t.Errorf("$zero = %d after write attempt", got)
	}
}

func TestClassCounts(t *testing.T) {
	c := run(t, `
        .text
main:   li    $t0, 2
        mult  $t0, $t0
        mflo  $t1
        li.d  $f0, 1.0
        add.d $f2, $f0, $f0
        lw    $t2, 0($sp)
        jr    $ra
`)
	counts := c.ClassCounts()
	if counts[isa.ClassIntMul] != 1 {
		t.Errorf("int-mul count = %d", counts[isa.ClassIntMul])
	}
	if counts[isa.ClassFPAdd] != 1 {
		t.Errorf("fp-add count = %d", counts[isa.ClassFPAdd])
	}
	// li.d expands to lui+ldc1; plus the lw = 2 loads + 1 ldc1.
	if counts[isa.ClassLoad] != 2 {
		t.Errorf("load count = %d", counts[isa.ClassLoad])
	}
}

func TestBBProfile(t *testing.T) {
	c := run(t, `
        .text
main:   li   $t0, 5
loop:   addi $t0, $t0, -1
        bgtz $t0, loop
        jr   $ra
`, WithBBProfile())
	prof := c.BBProfile()
	if prof == nil {
		t.Fatal("profile not enabled")
	}
	loopPC := asm.TextBase + 4 // after li (1 instr)
	if got := prof.Count(loopPC); got != 5 {
		t.Errorf("loop block count = %d, want 5", got)
	}
	hot := prof.Hot(1)
	if len(hot) != 1 || hot[0].PC != loopPC {
		t.Errorf("hot block = %+v", hot)
	}
	if prof.NumBlocks() < 2 {
		t.Errorf("NumBlocks = %d", prof.NumBlocks())
	}
}

func TestMemoryUnalignedStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint32(pageSize - 2) // straddles first page boundary
	m.WriteWord(addr, 0xa1b2c3d4)
	if got := m.ReadWord(addr); got != 0xa1b2c3d4 {
		t.Errorf("straddling word = %#x", got)
	}
	m.WriteDouble(addr, 0x1122334455667788)
	if got := m.ReadDouble(addr); got != 0x1122334455667788 {
		t.Errorf("straddling double = %#x", got)
	}
	m.WriteHalf(uint32(pageSize-1), 0xbeef)
	if got := m.ReadHalf(uint32(pageSize - 1)); got != 0xbeef {
		t.Errorf("straddling half = %#x", got)
	}
	if m.Pages() == 0 {
		t.Error("no pages resident")
	}
}

func TestReadCStringBounds(t *testing.T) {
	m := NewMemory()
	m.WriteBytes(100, []byte("hello\x00world"))
	if got := m.ReadCString(100, 64); got != "hello" {
		t.Errorf("ReadCString = %q", got)
	}
	if got := m.ReadCString(106, 3); got != "wor" {
		t.Errorf("bounded ReadCString = %q", got)
	}
}

func TestAccessors(t *testing.T) {
	p, err := asm.Assemble(".text\nmain: li $t0, 9\n syscall\n")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.PC() != asm.TextBase {
		t.Errorf("initial PC = %#x", c.PC())
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.ICount() != 1 {
		t.Errorf("ICount = %d", c.ICount())
	}
	if c.PC() != asm.TextBase+4 {
		t.Errorf("PC after step = %#x", c.PC())
	}
	c.SetReg(isa.A0, 77)
	if c.Reg(isa.A0) != 77 {
		t.Errorf("SetReg/Reg round trip failed")
	}
	c.SetReg(isa.Zero, 1)
	if c.Reg(isa.Zero) != 0 {
		t.Errorf("SetReg wrote $zero")
	}
	c.Mem().WriteWord(0x10000000, 0xabcd)
	if c.Mem().ReadWord(0x10000000) != 0xabcd {
		t.Errorf("Mem accessor broken")
	}
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { c.Reg(isa.FPReg(0)) })
	mustPanic(func() { c.SetReg(isa.HI, 1) })
	mustPanic(func() { c.FPReg(isa.T0) })
}

func TestFaultError(t *testing.T) {
	f := &Fault{PC: 0x1234, Msg: "boom"}
	if !strings.Contains(f.Error(), "0x1234") || !strings.Contains(f.Error(), "boom") {
		t.Errorf("Fault.Error() = %q", f.Error())
	}
}

func TestStepAfterExit(t *testing.T) {
	p, _ := asm.Assemble(".text\nmain: li $v0, 10\n syscall\n")
	c, _ := New(p)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err == nil {
		t.Error("Step after exit succeeded")
	}
}

func TestSbrkHeapOverflowFault(t *testing.T) {
	// Repeatedly sbrk until the heap would collide with the stack region.
	p, _ := asm.Assemble(`
        .text
main:   lui $a0, 0x4000
loop:   li $v0, 9
        syscall
        b loop
`)
	c, _ := New(p)
	_, err := c.Run(100)
	var fault *Fault
	if !errors.As(err, &fault) || !strings.Contains(fault.Msg, "sbrk") {
		t.Fatalf("err = %v, want sbrk fault", err)
	}
}

func TestReadDoubleSyscall(t *testing.T) {
	c := run(t, `
        .text
main:   li $v0, 7
        syscall
        mov.d $f20, $f0
        jr $ra
`, WithStdin(strings.NewReader("2.5")))
	if got := c.FPReg(isa.FPReg(20)); got != 2.5 {
		t.Errorf("read_double = %v", got)
	}
}

func TestMisalignedFetchFault(t *testing.T) {
	p, _ := asm.Assemble(".text\nmain: li $t0, 0x400002\n jr $t0\n nop\n")
	c, _ := New(p)
	_, err := c.Run(10)
	var fault *Fault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want fault on misaligned fetch", err)
	}
}

func TestBreakFault(t *testing.T) {
	p, _ := asm.Assemble(".text\nmain: break\n")
	c, _ := New(p)
	_, err := c.Run(10)
	var fault *Fault
	if !errors.As(err, &fault) || !strings.Contains(fault.Msg, "break") {
		t.Fatalf("err = %v, want break fault", err)
	}
}

func TestBBProfileCountUnknownPC(t *testing.T) {
	c := run(t, ".text\nmain: nop\n jr $ra\n", WithBBProfile())
	if got := c.BBProfile().Count(0xdead0000); got != 0 {
		t.Errorf("unknown PC count = %d", got)
	}
}

func TestMemoryHalfAndDoubleAligned(t *testing.T) {
	m := NewMemory()
	m.WriteHalf(100, 0x1234)
	if m.ReadHalf(100) != 0x1234 {
		t.Error("aligned half failed")
	}
	m.WriteDouble(200, 0xdeadbeefcafebabe)
	if m.ReadDouble(200) != 0xdeadbeefcafebabe {
		t.Error("aligned double failed")
	}
}

// TestPrintStringUnterminated proves the syscall layer's defence against a
// string with no NUL terminator: SysPrintString must return after exactly
// maxCString bytes instead of walking memory forever.
func TestPrintStringUnterminated(t *testing.T) {
	p, err := asm.Assemble(".text\nmain: jr $ra\n")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c, err := New(p, WithStdout(&out))
	if err != nil {
		t.Fatal(err)
	}
	// A run of nonzero bytes longer than the bound, with no terminator in
	// range: the first NUL lies beyond maxCString.
	const base = 0x20000000
	c.mem.WriteBytes(base, bytes.Repeat([]byte{'a'}, maxCString+512))
	c.intRegs[isa.V0] = SysPrintString
	c.intRegs[isa.A0] = base
	if err := c.syscall(); err != nil {
		t.Fatalf("syscall: %v", err)
	}
	if out.Len() != maxCString {
		t.Errorf("printed %d bytes, want the maxCString bound %d", out.Len(), maxCString)
	}
	// A terminated string in the same memory still prints normally.
	out.Reset()
	c.mem.WriteBytes(base, []byte("bounded\x00trailing"))
	if err := c.syscall(); err != nil {
		t.Fatalf("syscall: %v", err)
	}
	if out.String() != "bounded" {
		t.Errorf("printed %q, want %q", out.String(), "bounded")
	}
}
