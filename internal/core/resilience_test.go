package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"paragraph/internal/faultinject"
	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// genTraceEvents produces n valid events with enough memory traffic (stack
// and data, reads and overwrites) for death schedules and renaming to have
// work to do.
func genTraceEvents(n int) []trace.Event {
	rng := rand.New(rand.NewSource(13))
	out := make([]trace.Event, 0, n)
	pc := uint32(0x400000)
	for i := 0; i < n; i++ {
		var e trace.Event
		switch rng.Intn(5) {
		case 0:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.ADDI,
				Rt: isa.IntReg(8 + rng.Intn(8)), Rs: isa.IntReg(8 + rng.Intn(8)), Imm: int32(i)}}
		case 1:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.LW, Rt: isa.T2, Rs: isa.SP, Imm: 4},
				MemAddr: 0x7fff0000 + uint32(rng.Intn(32))*4, MemSize: 4, Seg: trace.SegStack}
		case 2:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SW, Rt: isa.T3, Rs: isa.SP, Imm: 8},
				MemAddr: 0x7fff0100 + uint32(rng.Intn(32))*4, MemSize: 4, Seg: trace.SegStack}
		case 3:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SW, Rt: isa.T4, Rs: isa.GP},
				MemAddr: 0x10000000 + uint32(rng.Intn(32))*4, MemSize: 4, Seg: trace.SegData}
		default:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.BNE, Rs: isa.T0, Rt: isa.Zero, Imm: -16},
				Taken: rng.Intn(3) == 0}
		}
		out = append(out, e)
		if rng.Intn(8) == 0 {
			pc = 0x400000 + uint32(rng.Intn(1<<14))&^3
		} else {
			pc += 4
		}
	}
	return out
}

// encodeV2 serializes events as a v2 trace with small chunks.
func encodeV2(t *testing.T, events []trace.Event, chunkBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOpts(&buf, trace.WriterOptions{Version: 2, ChunkBytes: chunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if err := w.Event(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestValidateEventRejections(t *testing.T) {
	cases := []struct {
		name   string
		event  trace.Event
		reason string // substring of the expected Reason
	}{
		{"unknown opcode",
			trace.Event{PC: 0x400000, Ins: isa.Instruction{Op: 0xFF}},
			"unknown opcode"},
		{"zero-size memory op",
			trace.Event{PC: 0x400000, Ins: isa.Instruction{Op: isa.LW, Rt: isa.T0, Rs: isa.SP},
				MemAddr: 0x7fff0000, Seg: trace.SegStack},
			"zero access size"},
		{"memory access on ALU op",
			trace.Event{PC: 0x400000, Ins: isa.Instruction{Op: isa.ADD, Rd: isa.T0},
				MemAddr: 0x1000, MemSize: 4, Seg: trace.SegData},
			"carries a memory access"},
		{"no segment",
			trace.Event{PC: 0x400000, Ins: isa.Instruction{Op: isa.LW, Rt: isa.T0, Rs: isa.SP},
				MemAddr: 0x7fff0000, MemSize: 4},
			"no segment"},
		{"stack tag below stack floor",
			trace.Event{PC: 0x400000, Ins: isa.Instruction{Op: isa.LW, Rt: isa.T0, Rs: isa.SP},
				MemAddr: 0x1000, MemSize: 4, Seg: trace.SegStack},
			"inconsistent with address"},
		{"data tag above stack floor",
			trace.Event{PC: 0x400000, Ins: isa.Instruction{Op: isa.SW, Rt: isa.T0, Rs: isa.GP},
				MemAddr: 0x7fff0000, MemSize: 4, Seg: trace.SegData},
			"inconsistent with address"},
		{"access wrapping past 2^32", // lw $t0, -2($zero)
			trace.Event{PC: 0x400000, Ins: isa.Instruction{Op: isa.LW, Rt: isa.T0, Imm: -2},
				MemAddr: 0xfffffffe, MemSize: 4, Seg: trace.SegStack},
			"wraps past the end of the address space"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAnalyzer(Dataflow(SyscallConservative))
			// One good event first, so the index below is non-trivial.
			good := trace.Event{PC: 0x400000, Ins: isa.Instruction{Op: isa.ADDI, Rt: isa.T0, Rs: isa.T1, Imm: 1}}
			if err := a.Event(&good); err != nil {
				t.Fatal(err)
			}
			err := a.Event(&tc.event)
			if !errors.Is(err, ErrBadEvent) {
				t.Fatalf("err = %v, want ErrBadEvent", err)
			}
			var bad *BadEventError
			if !errors.As(err, &bad) {
				t.Fatalf("err = %T, want *BadEventError", err)
			}
			if bad.Index != 1 {
				t.Errorf("Index = %d, want 1", bad.Index)
			}
			if bad.PC != tc.event.PC {
				t.Errorf("PC = %#x, want %#x", bad.PC, tc.event.PC)
			}
			if !contains(bad.Reason, tc.reason) {
				t.Errorf("Reason = %q, want it to mention %q", bad.Reason, tc.reason)
			}
			// A rejected event must not have advanced the analysis.
			res, ferr := a.Finish()
			if ferr != nil {
				t.Fatal(ferr)
			}
			if res.Instructions != 1 {
				t.Errorf("rejected event was counted: Instructions = %d", res.Instructions)
			}
		})
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// TestMangledEventsRejected closes the loop with the fault injector: every
// mangling it can produce must be caught by validation.
func TestMangledEventsRejected(t *testing.T) {
	a := NewAnalyzer(Dataflow(SyscallConservative))
	inj := faultinject.NewSink(a, faultinject.SinkOptions{Seed: 3, MangleP: 1})
	events := genTraceEvents(200)
	rejected := 0
	for i := range events {
		if err := inj.Event(&events[i]); err != nil {
			if !errors.Is(err, ErrBadEvent) {
				t.Fatalf("event %d: %v, want ErrBadEvent", i, err)
			}
			rejected++
		}
	}
	if inj.Mangled != len(events) {
		t.Fatalf("injector mangled %d of %d", inj.Mangled, len(events))
	}
	if rejected != len(events) {
		t.Errorf("validation rejected %d of %d mangled events", rejected, len(events))
	}
}

func TestFinishLifecycleErrors(t *testing.T) {
	a := NewAnalyzer(Config{})
	e := trace.Event{PC: 4, Ins: isa.Instruction{Op: isa.NOP}}
	if err := a.Event(&e); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := a.Event(&e); err == nil {
		t.Error("Event after Finish succeeded")
	}
	if _, err := a.Finish(); err == nil {
		t.Error("second Finish succeeded")
	}
}

// feed pushes events[lo:hi] into a, failing the test on error.
func feed(t *testing.T, a *Analyzer, events []trace.Event, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := a.Event(&events[i]); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
}

// assertSameResult compares the metrics a resumed run must reproduce.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Instructions != want.Instructions {
		t.Errorf("%s: Instructions = %d, want %d", label, got.Instructions, want.Instructions)
	}
	if got.Operations != want.Operations {
		t.Errorf("%s: Operations = %d, want %d", label, got.Operations, want.Operations)
	}
	if got.CriticalPath != want.CriticalPath {
		t.Errorf("%s: CriticalPath = %d, want %d", label, got.CriticalPath, want.CriticalPath)
	}
	if got.Available != want.Available {
		t.Errorf("%s: Available = %g, want %g", label, got.Available, want.Available)
	}
	if got.MaxLiveMemoryWords != want.MaxLiveMemoryWords {
		t.Errorf("%s: MaxLiveMemoryWords = %d, want %d", label, got.MaxLiveMemoryWords, want.MaxLiveMemoryWords)
	}
	if got.Branches != want.Branches || got.Mispredictions != want.Mispredictions {
		t.Errorf("%s: branches %d/%d, want %d/%d", label,
			got.Mispredictions, got.Branches, want.Mispredictions, want.Branches)
	}
}

func TestCheckpointResumeEquivalence(t *testing.T) {
	events := genTraceEvents(3000)
	configs := map[string]Config{
		"dataflow": Dataflow(SyscallConservative),
		"windowed": {Syscalls: SyscallConservative, RenameRegisters: true, RenameStack: true,
			WindowSize: 64, FunctionalUnits: 4, Branches: BranchTwoBit},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			full := NewAnalyzer(cfg)
			feed(t, full, events, 0, len(events))
			want, err := full.Finish()
			if err != nil {
				t.Fatal(err)
			}

			split := len(events) / 3
			live := NewAnalyzer(cfg)
			feed(t, live, events, 0, split)
			cp := live.Snapshot()
			if cp.EventOffset != uint64(split) {
				t.Fatalf("EventOffset = %d, want %d", cp.EventOffset, split)
			}

			// The snapshotted analyzer keeps running to the end...
			feed(t, live, events, split, len(events))
			liveRes, err := live.Finish()
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "snapshotted analyzer", liveRes, want)

			// ...and the restored one, fed the remainder, matches too —
			// even though the original kept mutating after the snapshot.
			resumed := cp.Restore()
			feed(t, resumed, events, split, len(events))
			resumedRes, err := resumed.Finish()
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "restored analyzer", resumedRes, want)

			// Restore is repeatable: a second restoration works as well.
			resumed2 := cp.Restore()
			feed(t, resumed2, events, split, len(events))
			res2, err := resumed2.Finish()
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "second restoration", res2, want)
		})
	}
}

func TestTwoPassDegradedOverCorruptChunk(t *testing.T) {
	events := genTraceEvents(4000)
	data := encodeV2(t, events, 512)
	chunks, err := trace.ScanChunks(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 4 {
		t.Fatalf("need several chunks, got %d", len(chunks))
	}
	target := len(chunks) / 2
	bad, err := faultinject.CorruptChunk(data, target, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Dataflow(SyscallConservative)
	cfg.Profile = false

	// Fail-fast: the corrupt chunk aborts the run with a structured error.
	_, err = AnalyzeTwoPassOpts(context.Background(), bytes.NewReader(bad), cfg, TwoPassOptions{})
	var cce *trace.CorruptChunkError
	if !errors.As(err, &cce) {
		t.Fatalf("fail-fast run gave %v, want *CorruptChunkError", err)
	}
	if cce.Chunk != target {
		t.Errorf("failed chunk = %d, want %d", cce.Chunk, target)
	}

	// Degraded: the run completes, losing exactly the corrupt chunk.
	var st trace.ReadStats
	res, err := AnalyzeTwoPassOpts(context.Background(), bytes.NewReader(bad), cfg, TwoPassOptions{Degraded: true, Stats: &st})
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	lost := uint64(chunks[target].Events)
	if st.SkippedEvents != lost || st.SkippedChunks != 1 {
		t.Errorf("stats = %+v, want 1 skipped chunk of %d events", st, lost)
	}
	if res.Instructions != uint64(len(events))-lost {
		t.Errorf("Instructions = %d, want %d (total minus the lost chunk)",
			res.Instructions, uint64(len(events))-lost)
	}
}

func TestTwoPassCheckpointResume(t *testing.T) {
	events := genTraceEvents(3000)
	data := encodeV2(t, events, 1024)
	cfg := Dataflow(SyscallConservative)
	cfg.Profile = false

	want, err := AnalyzeTwoPass(bytes.NewReader(data), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt the pass at its second checkpoint, as a crash would.
	interrupted := errors.New("simulated interruption")
	var last *Checkpoint
	opts := TwoPassOptions{CheckpointEvery: 512}
	opts.OnCheckpoint = func(cp *Checkpoint) error {
		last = cp
		if cp.EventOffset >= 1024 {
			return interrupted
		}
		return nil
	}
	_, err = AnalyzeTwoPassOpts(context.Background(), bytes.NewReader(data), cfg, opts)
	if !errors.Is(err, interrupted) {
		t.Fatalf("interrupted run gave %v", err)
	}
	if last == nil || last.EventOffset != 1024 {
		t.Fatalf("last checkpoint at %+v, want offset 1024", last)
	}

	res, err := ResumeTwoPass(context.Background(), bytes.NewReader(data), last, TwoPassOptions{})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	assertSameResult(t, "resumed two-pass", res, want)

	// Resuming past the end of the trace is a clear error, not a hang.
	tooFar := &Checkpoint{EventOffset: uint64(len(events)) + 1, a: last.a}
	if _, err := ResumeTwoPass(context.Background(), bytes.NewReader(data), tooFar, TwoPassOptions{}); err == nil {
		t.Error("resume beyond trace end succeeded")
	}
}

func TestCheckpointEveryErrorPosition(t *testing.T) {
	// The checkpoint callback's error is wrapped with the trace position.
	events := genTraceEvents(600)
	data := encodeV2(t, events, 1024)
	cfg := Config{Syscalls: SyscallConservative}
	boom := errors.New("checkpoint store full")
	_, err := AnalyzeTwoPassOpts(context.Background(), bytes.NewReader(data), cfg, TwoPassOptions{
		CheckpointEvery: 500,
		OnCheckpoint:    func(*Checkpoint) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if want := fmt.Sprintf("checkpoint at event %d", 500); !contains(err.Error(), want) {
		t.Errorf("err = %q, want it to mention %q", err, want)
	}
}
