package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"paragraph/internal/isa"
)

func sampleEvents() []Event {
	return []Event{
		{PC: 0x400000, Ins: isa.Instruction{Op: isa.LUI, Rt: isa.T0, Imm: 1}},
		{PC: 0x400004, Ins: isa.Instruction{Op: isa.ADDI, Rt: isa.T1, Rs: isa.T0, Imm: -3}},
		{PC: 0x400008, Ins: isa.Instruction{Op: isa.LW, Rt: isa.T2, Rs: isa.SP, Imm: 4},
			MemAddr: 0x7fff0004, MemSize: 4, Seg: SegStack},
		{PC: 0x40000c, Ins: isa.Instruction{Op: isa.BNE, Rs: isa.T2, Rt: isa.Zero, Imm: -4}, Taken: true},
		{PC: 0x400008, Ins: isa.Instruction{Op: isa.SW, Rt: isa.T2, Rs: isa.GP, Imm: 0},
			MemAddr: 0x10000000, MemSize: 4, Seg: SegData},
		{PC: 0x40000c, Ins: isa.Instruction{Op: isa.SYSCALL}},
	}
}

func TestRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if err := w.Event(&events[i]); err != nil {
			t.Fatalf("write event %d: %v", i, err)
		}
	}
	if w.Count() != uint64(len(events)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(events))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got Event
	for i := range events {
		if err := r.Next(&got); err != nil {
			t.Fatalf("read event %d: %v", i, err)
		}
		if got != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got, events[i])
		}
	}
	if err := r.Next(&got); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestForEach(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := range events {
		if err := w.Event(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	err = r.ForEach(func(e *Event) error { n++; return nil })
	if err != nil || n != len(events) {
		t.Fatalf("ForEach visited %d events, err %v; want %d, nil", n, err, len(events))
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("NewReader accepted bad magic")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("NewReader accepted empty input")
	}
}

func TestTruncatedTrace(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := range events {
		if err := w.Event(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop in the middle of the last event: expect an error, not EOF.
	r, err := NewReader(bytes.NewReader(full[:len(full)-1]))
	if err != nil {
		t.Fatal(err)
	}
	var e Event
	var lastErr error
	for {
		lastErr = r.Next(&e)
		if lastErr != nil {
			break
		}
	}
	if lastErr == io.EOF {
		t.Fatal("truncated trace produced a clean EOF")
	}
}

func TestTeeAndCounter(t *testing.T) {
	var c1, c2 Counter
	sink := Tee(&c1, &c2)
	e := Event{PC: 4, Ins: isa.Instruction{Op: isa.NOP}}
	for i := 0; i < 5; i++ {
		if err := sink.Event(&e); err != nil {
			t.Fatal(err)
		}
	}
	if c1.N != 5 || c2.N != 5 {
		t.Errorf("counters = %d, %d; want 5, 5", c1.N, c2.N)
	}
}

// TestTeeSingleSink: a tee of one sink is that sink, so it costs no
// forwarding call per event.
func TestTeeSingleSink(t *testing.T) {
	var c Counter
	if sink := Tee(&c); sink != Sink(&c) {
		t.Fatalf("Tee of one sink returned %T, want the sink itself", sink)
	}
}

// failAfter is a Sink that errors on the (after+1)-th event.
type failAfter struct {
	after int
	n     int
	err   error
}

func (s *failAfter) Event(*Event) error {
	s.n++
	if s.n > s.after {
		return s.err
	}
	return nil
}

func TestTeeErrorPropagation(t *testing.T) {
	boom := errors.New("sink failed")
	var before, behind Counter
	bad := &failAfter{after: 2, err: boom}
	sink := Tee(&before, bad, &behind)

	e := Event{PC: 4, Ins: isa.Instruction{Op: isa.NOP}}
	var err error
	deliveries := 0
	for i := 0; i < 10; i++ {
		if err = sink.Event(&e); err != nil {
			break
		}
		deliveries++
	}
	if !errors.Is(err, boom) {
		t.Fatalf("Tee returned %v, want the sink's error", err)
	}
	if deliveries != 2 {
		t.Errorf("Tee delivered %d events before failing, want 2", deliveries)
	}
	// Sinks ahead of the failing one saw the failing event; sinks behind
	// it did not.
	if before.N != 3 {
		t.Errorf("upstream sink saw %d events, want 3", before.N)
	}
	if behind.N != 2 {
		t.Errorf("downstream sink saw %d events, want 2", behind.N)
	}
}

func TestSegmentString(t *testing.T) {
	for seg, want := range map[Segment]string{
		SegNone: "none", SegData: "data", SegHeap: "heap", SegStack: "stack",
	} {
		if seg.String() != want {
			t.Errorf("Segment(%d).String() = %q, want %q", seg, seg.String(), want)
		}
	}
}

func TestIsSyscall(t *testing.T) {
	e := Event{Ins: isa.Instruction{Op: isa.SYSCALL}}
	if !e.IsSyscall() {
		t.Error("SYSCALL not detected")
	}
	e.Ins.Op = isa.ADD
	if e.IsSyscall() {
		t.Error("ADD detected as syscall")
	}
}

// TestRoundTripRandom pushes a long pseudo-random event stream through the
// writer/reader pair, exercising both sequential-PC and explicit-PC paths.
func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := []isa.Op{isa.ADD, isa.ADDI, isa.LW, isa.SW, isa.BEQ, isa.MULT, isa.ADDD, isa.LDC1}
	var events []Event
	pc := uint32(0x400000)
	for i := 0; i < 5000; i++ {
		op := ops[rng.Intn(len(ops))]
		info := op.Info()
		e := Event{PC: pc, Ins: isa.Instruction{Op: op}}
		fp := info.Format == isa.FormatFR || op == isa.LDC1
		pickReg := func() isa.Reg {
			if fp {
				return isa.FPReg(rng.Intn(32))
			}
			return isa.IntReg(rng.Intn(32))
		}
		if info.ReadsRs {
			e.Ins.Rs = pickReg()
			if op == isa.LDC1 || op == isa.LW || op == isa.SW {
				e.Ins.Rs = isa.IntReg(rng.Intn(32)) // base register is integer
			}
		}
		if info.ReadsRt || info.WritesRt {
			e.Ins.Rt = pickReg()
		}
		if info.WritesRd {
			e.Ins.Rd = pickReg()
		}
		if info.HasImm {
			e.Ins.Imm = int32(int16(rng.Uint32()))
		}
		if info.IsLoad || info.IsStore {
			e.MemAddr = rng.Uint32() &^ 7
			e.MemSize = uint8(info.MemSize)
			e.Seg = Segment(1 + rng.Intn(3))
		}
		if info.IsBranch {
			e.Taken = rng.Intn(2) == 0
		}
		events = append(events, e)
		if rng.Intn(4) == 0 {
			pc = rng.Uint32() &^ 3 // jump somewhere
		} else {
			pc += 4
		}
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if err := w.Event(&events[i]); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got Event
	for i := range events {
		if err := r.Next(&got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != events[i] {
			t.Fatalf("event %d mismatch: got %+v want %+v", i, got, events[i])
		}
	}
}

// TestV1Prefixes cuts a v1 trace at every byte offset. The stream reader
// and NewBytesReader (which falls back to it for v1) deliver exactly the
// events wholly before the cut, then io.EOF at an event boundary and
// ErrTruncated inside an event; with a failing reader after the cut, the
// injected error instead.
func TestV1Prefixes(t *testing.T) {
	boom := errors.New("disk on fire")
	events := genEvents(300)
	data, ends := writeV1(t, events)
	for cut := 0; cut <= len(data); cut++ {
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		atBoundary := cut == len(magic) || whole > 0 && ends[whole-1] == cut
		prefix := data[:cut]
		readers := map[string]func() (*Reader, error){
			"bufio":  func() (*Reader, error) { return NewReader(bytes.NewReader(prefix)) },
			"bytes":  func() (*Reader, error) { return NewBytesReader(prefix, ReaderOptions{}) },
			"failed": func() (*Reader, error) { return NewReader(brokenAfter(prefix, boom)) },
		}
		for kind, open := range readers {
			want := func(err error) bool {
				switch {
				case kind == "failed":
					return errors.Is(err, boom)
				case atBoundary:
					return err == io.EOF
				}
				return errors.Is(err, ErrTruncated)
			}
			r, err := open()
			if cut < len(magic) {
				if !want(err) || atBoundary {
					t.Fatalf("%s cut %d: open gave %v", kind, cut, err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := readAll(r)
			if len(got) != whole || !want(err) {
				t.Fatalf("%s cut %d: %d events, end %v; want %d events and the %s end",
					kind, cut, len(got), err, whole, map[bool]string{true: "boundary", false: "mid-event"}[atBoundary])
			}
			for i := range got {
				if got[i] != events[i] {
					t.Fatalf("%s cut %d: event %d mismatch", kind, cut, i)
				}
			}
		}
	}
}
