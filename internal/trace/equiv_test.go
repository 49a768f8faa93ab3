package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"paragraph/internal/faultinject"
	"paragraph/internal/isa"
	"paragraph/internal/minic"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// The streaming (bufio) reader and the zero-copy (bytes/mmap) reader are
// two byte-acquisition strategies over one decode state machine, and they
// must be observationally identical: same surviving events, same ReadStats
// accounting, same errors — on clean traces and on every kind of damage,
// in fail-fast and degraded modes alike. These tests (and the fuzzer) hold
// them to that.

// equivEvents generates n well-formed events (ALU, load, store, branch)
// with enough PC jumps to exercise both PC encodings.
func equivEvents(n int, seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]trace.Event, 0, n)
	pc := uint32(0x400000)
	for i := 0; i < n; i++ {
		var e trace.Event
		switch rng.Intn(4) {
		case 0:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.ADDI, Rt: isa.T0, Rs: isa.T1, Imm: int32(i)}}
		case 1:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.LW, Rt: isa.T2, Rs: isa.SP, Imm: 4},
				MemAddr: 0x7fff0000 + uint32(rng.Intn(64))*4, MemSize: 4, Seg: trace.SegStack}
		case 2:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SW, Rt: isa.T2, Rs: isa.GP},
				MemAddr: 0x10000000 + uint32(rng.Intn(64))*4, MemSize: 4, Seg: trace.SegData}
		default:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.BNE, Rs: isa.T0, Rt: isa.Zero, Imm: -4},
				Taken: rng.Intn(2) == 0}
		}
		events = append(events, e)
		if rng.Intn(8) == 0 {
			pc = 0x400000 + uint32(rng.Intn(1<<16))&^3
		} else {
			pc += 4
		}
	}
	return events
}

// equivTrace encodes events as a v2 trace with small chunks, so damage
// spans chunk boundaries often.
func equivTrace(tb testing.TB, n int, chunkBytes int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOpts(&buf, trace.WriterOptions{Version: 2, ChunkBytes: chunkBytes})
	if err != nil {
		tb.Fatal(err)
	}
	events := equivEvents(n, 7)
	for i := range events {
		if err := w.Event(&events[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// drainCap bounds a drain so a reader bug cannot hang the fuzzer.
const drainCap = 1 << 21

// drain reads every event a reader delivers, returning the events, the
// final ReadStats, and the terminal error (nil for clean EOF).
func drain(r *trace.Reader) ([]trace.Event, trace.ReadStats, error) {
	var events []trace.Event
	var e trace.Event
	for len(events) < drainCap {
		err := r.Next(&e)
		if err == io.EOF {
			return events, r.Stats(), nil
		}
		if err != nil {
			return events, r.Stats(), err
		}
		events = append(events, e)
	}
	return events, r.Stats(), nil
}

// checkEquivalence runs both readers over data in the given mode and fails
// if any observable differs. It returns the surviving-event count for
// tests that want to assert on it.
func checkEquivalence(tb testing.TB, data []byte, degraded bool) int {
	tb.Helper()
	opts := trace.ReaderOptions{Degraded: degraded}

	sr, serr := trace.NewReaderOpts(bytes.NewReader(data), opts)
	zr, zerr := trace.NewBytesReader(append([]byte(nil), data...), opts)
	if (serr == nil) != (zerr == nil) {
		tb.Fatalf("degraded=%v: constructor disagreement: streaming err %v, zero-copy err %v", degraded, serr, zerr)
	}
	if serr != nil {
		if serr.Error() != zerr.Error() {
			tb.Fatalf("degraded=%v: constructor errors differ:\nstreaming: %v\nzero-copy: %v", degraded, serr, zerr)
		}
		return 0
	}

	sev, sst, sfinal := drain(sr)
	zev, zst, zfinal := drain(zr)
	if len(sev) != len(zev) {
		tb.Fatalf("degraded=%v: event counts differ: streaming %d, zero-copy %d", degraded, len(sev), len(zev))
	}
	for i := range sev {
		if sev[i] != zev[i] {
			tb.Fatalf("degraded=%v: event %d differs:\nstreaming: %+v\nzero-copy: %+v", degraded, i, sev[i], zev[i])
		}
	}
	if sst != zst {
		tb.Fatalf("degraded=%v: ReadStats differ:\nstreaming: %+v\nzero-copy: %+v", degraded, sst, zst)
	}
	if (sfinal == nil) != (zfinal == nil) {
		tb.Fatalf("degraded=%v: terminal errors disagree: streaming %v, zero-copy %v", degraded, sfinal, zfinal)
	}
	if sfinal != nil {
		if sfinal.Error() != zfinal.Error() {
			tb.Fatalf("degraded=%v: terminal errors differ:\nstreaming: %v\nzero-copy: %v", degraded, sfinal, zfinal)
		}
		var sc, zc *trace.CorruptChunkError
		if errors.As(sfinal, &sc) != errors.As(zfinal, &zc) {
			tb.Fatalf("degraded=%v: only one terminal error is a CorruptChunkError", degraded)
		}
		if sc != nil && !reflect.DeepEqual(*sc, *zc) {
			tb.Fatalf("degraded=%v: CorruptChunkError fields differ:\nstreaming: %+v\nzero-copy: %+v", degraded, *sc, *zc)
		}
	}
	return len(sev)
}

// TestDifferentialReaderBytesVsBufio runs the two readers over a catalogue
// of damaged traces in both modes.
func TestDifferentialReaderBytesVsBufio(t *testing.T) {
	clean := equivTrace(t, 4000, 512)
	corruptMid := func() []byte {
		d, err := faultinject.CorruptChunk(append([]byte(nil), clean...), 3, 11)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}()
	dupMid := func() []byte {
		d, err := faultinject.DuplicateChunk(append([]byte(nil), clean...), 2)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}()
	cases := map[string][]byte{
		"clean":          clean,
		"empty":          {},
		"magic-only":     clean[:8],
		"torn-header":    clean[:8+10],
		"truncated":      faultinject.Truncate(append([]byte(nil), clean...), len(clean)/3),
		"flip-sparse":    faultinject.FlipBits(append([]byte(nil), clean...), 8, 3, 8),
		"flip-dense":     faultinject.FlipBits(append([]byte(nil), clean...), 200, 5, 8),
		"corrupt-chunk":  corruptMid,
		"dup-chunk":      dupMid,
		"garbage":        bytes.Repeat([]byte{0xD7, 'P', 'G'}, 400),
		"marker-noise":   append(append([]byte(nil), clean[:100]...), bytes.Repeat(chunkMarkerBytes(), 30)...),
		"v1-passthrough": v1Trace(t),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			for _, degraded := range []bool{false, true} {
				checkEquivalence(t, data, degraded)
			}
		})
	}
	// Sanity: a clean trace must survive in full on the zero-copy path.
	if n := checkEquivalence(t, clean, false); n != 4000 {
		t.Fatalf("clean trace delivered %d events, want 4000", n)
	}
}

// chunkMarkerBytes returns the v2 chunk marker, reconstructed from a real
// trace so the test does not reach into package internals.
func chunkMarkerBytes() []byte {
	return []byte{0xD7, 'P', 'G', 0xC5}
}

// v1Trace builds a small legacy v1 trace: the zero-copy constructor must
// fall back to the streaming reader with identical behavior.
func v1Trace(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterV1(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	events := equivEvents(100, 3)
	for i := range events {
		if err := w.Event(&events[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestDifferentialSectionReaders holds NewBytesSectionReader to the
// behavior of NewSectionReader over every chunk span of a damaged trace.
func TestDifferentialSectionReaders(t *testing.T) {
	data := faultinject.FlipBits(equivTrace(t, 6000, 512), 10, 21, 8)
	spans, _, err := trace.ScanChunkSpans(data, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) < 4 {
		t.Fatalf("want several spans, got %d", len(spans))
	}
	for i, sp := range spans {
		opts := trace.ReaderOptions{Degraded: true}
		if i > 0 {
			opts.StartSeq, opts.StartSeqValid = spans[i-1].Seq, true
		}
		end := int64(len(data))
		if i+1 < len(spans) {
			end = spans[i+1].Start
		}
		sr, err := trace.NewSectionReader(data, sp.Start, end, opts)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := trace.NewBytesSectionReader(data, sp.Start, end, opts)
		if err != nil {
			t.Fatal(err)
		}
		sev, sst, serr := drain(sr)
		zev, zst, zerr := drain(zr)
		if serr != nil || zerr != nil {
			t.Fatalf("span %d: drain errors %v / %v", i, serr, zerr)
		}
		if !reflect.DeepEqual(sev, zev) {
			t.Fatalf("span %d: events differ (%d vs %d)", i, len(sev), len(zev))
		}
		if sst != zst {
			t.Fatalf("span %d: stats differ: %+v vs %+v", i, sst, zst)
		}
	}
}

// FuzzReaderEquivalence fuzzes arbitrary bytes through both readers in
// both modes, asserting identical surviving events, ReadStats and errors.
func FuzzReaderEquivalence(f *testing.F) {
	clean := equivTrace(f, 1000, 256)
	f.Add(clean)
	f.Add(clean[:8])
	f.Add([]byte{})
	f.Add(faultinject.FlipBits(append([]byte(nil), clean...), 16, 9, 8))
	f.Add(faultinject.Truncate(append([]byte(nil), clean...), len(clean)-17))
	if d, err := faultinject.CorruptChunk(append([]byte(nil), clean...), 1, 4); err == nil {
		f.Add(d)
	}
	if d, err := faultinject.DuplicateChunk(append([]byte(nil), clean...), 1); err == nil {
		f.Add(d)
	}
	for _, d := range trace.OverwideTraces() {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, degraded := range []bool{false, true} {
			checkEquivalence(t, data, degraded)
		}
	})
}

// TestDecodeTableAnalogues holds the reader's decoded-instruction table to
// isa.Decode on real programs: every event of each of the ten analogues'
// v2 traces must decode to exactly the instruction isa.Decode gives for
// the word that was written. The table is one reader's private state, so
// the race detector has nothing to audit here, and it would stretch the
// test's few seconds to most of a minute.
func TestDecodeTableAnalogues(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("single-goroutine decode of ten full traces; skipped under -race")
	}
	for _, w := range workloads.All() {
		var enc bytes.Buffer
		tw, err := trace.NewWriter(&enc)
		if err != nil {
			t.Fatal(err)
		}
		var words []uint32
		record := trace.SinkFunc(func(e *trace.Event) error {
			word, err := isa.Encode(&e.Ins)
			if err != nil {
				return err
			}
			words = append(words, word)
			return tw.Event(e)
		})
		if _, err := w.Run(1, minic.Options{}, record, 0); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := trace.NewBytesReader(enc.Bytes(), trace.ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		err = r.ForEachBatch(func(batch []trace.Event) error {
			for j := range batch {
				want, err := isa.Decode(words[i])
				if err != nil {
					return err
				}
				if batch[j].Ins != want {
					return fmt.Errorf("event %d at pc %#x: decoded %+v, isa.Decode gives %+v", i, batch[j].PC, batch[j].Ins, want)
				}
				i++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if i != len(words) {
			t.Fatalf("%s: decoded %d events, wrote %d", w.Name, i, len(words))
		}
	}
}
