package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"paragraph/internal/isa"
)

// genEvents produces n well-formed events mixing ALU, memory and branch
// operations, with enough PC jumps to exercise both PC encodings.
func genEvents(n int) []Event {
	rng := rand.New(rand.NewSource(7))
	events := make([]Event, 0, n)
	pc := uint32(0x400000)
	for i := 0; i < n; i++ {
		var e Event
		switch rng.Intn(4) {
		case 0:
			e = Event{PC: pc, Ins: isa.Instruction{Op: isa.ADDI, Rt: isa.T0, Rs: isa.T1, Imm: int32(i)}}
		case 1:
			e = Event{PC: pc, Ins: isa.Instruction{Op: isa.LW, Rt: isa.T2, Rs: isa.SP, Imm: 4},
				MemAddr: 0x7fff0000 + uint32(rng.Intn(64))*4, MemSize: 4, Seg: SegStack}
		case 2:
			e = Event{PC: pc, Ins: isa.Instruction{Op: isa.SW, Rt: isa.T2, Rs: isa.GP},
				MemAddr: 0x10000000 + uint32(rng.Intn(64))*4, MemSize: 4, Seg: SegData}
		default:
			e = Event{PC: pc, Ins: isa.Instruction{Op: isa.BNE, Rs: isa.T0, Rt: isa.Zero, Imm: -4},
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

// writeV2 encodes events as a v2 trace with the given chunk payload target.
func writeV2(t *testing.T, events []Event, chunkBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterOpts(&buf, WriterOptions{Version: 2, ChunkBytes: chunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if err := w.Event(&events[i]); err != nil {
			t.Fatalf("write event %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll drains a reader, returning the events delivered and the terminal
// error (io.EOF for a clean end).
func readAll(r *Reader) ([]Event, error) {
	var out []Event
	var e Event
	for {
		err := r.Next(&e)
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

func TestV2RoundTripMultiChunk(t *testing.T) {
	events := genEvents(2000)
	data := writeV2(t, events, 256)

	chunks, err := ScanChunks(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 10 {
		t.Fatalf("expected many chunks with a 256-byte target, got %d", len(chunks))
	}
	var total uint32
	for i, c := range chunks {
		if !c.CRCOK {
			t.Errorf("chunk %d CRC mismatch in pristine trace", i)
		}
		if c.Seq != uint32(i) {
			t.Errorf("chunk %d has seq %d", i, c.Seq)
		}
		total += c.Events
	}
	if total != uint32(len(events)) {
		t.Errorf("chunk headers count %d events, wrote %d", total, len(events))
	}

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := readAll(r)
	if rerr != io.EOF {
		t.Fatalf("terminal error = %v, want EOF", rerr)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d mismatch: got %+v want %+v", i, got[i], events[i])
		}
	}
	st := r.Stats()
	if st.Chunks != len(chunks) || st.SkippedChunks != 0 || st.SkippedEvents != 0 {
		t.Errorf("clean read stats = %+v", st)
	}
}

func TestV1RoundTripStillSupported(t *testing.T) {
	events := genEvents(500)
	var buf bytes.Buffer
	w, err := NewWriterV1(&buf)
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
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := readAll(r)
	if rerr != io.EOF || len(got) != len(events) {
		t.Fatalf("v1 read: %d events, err %v", len(got), rerr)
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

// corruptPayloadByte flips a bit in the payload of chunk i, leaving the
// header (and thus the resync marker) intact.
func corruptPayloadByte(t *testing.T, data []byte, i int) []byte {
	t.Helper()
	chunks, err := ScanChunks(data)
	if err != nil {
		t.Fatal(err)
	}
	if i >= len(chunks) || chunks[i].Payload == 0 {
		t.Fatalf("no payload to corrupt in chunk %d", i)
	}
	out := append([]byte(nil), data...)
	out[int(chunks[i].Offset)+chunkHdrLen+chunks[i].Payload/2] ^= 0x10
	return out
}

func TestV2CorruptChunkFailFast(t *testing.T) {
	events := genEvents(1500)
	data := writeV2(t, events, 256)
	chunks, _ := ScanChunks(data)
	bad := corruptPayloadByte(t, data, 3)

	r, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := readAll(r)
	var cce *CorruptChunkError
	if !errors.As(rerr, &cce) {
		t.Fatalf("terminal error = %v, want *CorruptChunkError", rerr)
	}
	if !errors.Is(rerr, ErrChecksum) {
		t.Errorf("cause = %v, want ErrChecksum", cce.Cause)
	}
	if cce.Chunk != 3 {
		t.Errorf("failed chunk = %d, want 3", cce.Chunk)
	}
	if cce.Offset != chunks[3].Offset {
		t.Errorf("failure offset = %d, want %d", cce.Offset, chunks[3].Offset)
	}
	if cce.Events != chunks[3].Events {
		t.Errorf("reported events at risk = %d, want %d", cce.Events, chunks[3].Events)
	}
	// Everything before the bad chunk was delivered intact.
	var before int
	for i := 0; i < 3; i++ {
		before += int(chunks[i].Events)
	}
	if len(got) != before {
		t.Errorf("delivered %d events before failing, want %d", len(got), before)
	}
}

func TestV2CorruptChunkDegraded(t *testing.T) {
	events := genEvents(1500)
	data := writeV2(t, events, 256)
	chunks, _ := ScanChunks(data)
	bad := corruptPayloadByte(t, data, 3)

	r, err := NewReaderOpts(bytes.NewReader(bad), ReaderOptions{Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := readAll(r)
	if rerr != io.EOF {
		t.Fatalf("degraded read ended with %v, want EOF", rerr)
	}
	st := r.Stats()
	if st.SkippedChunks != 1 {
		t.Errorf("SkippedChunks = %d, want 1", st.SkippedChunks)
	}
	if st.SkippedEvents != uint64(chunks[3].Events) {
		t.Errorf("SkippedEvents = %d, want %d (chunk 3's header count)",
			st.SkippedEvents, chunks[3].Events)
	}
	if st.ResyncBytes == 0 {
		t.Error("ResyncBytes = 0 after a resync")
	}
	want := len(events) - int(chunks[3].Events)
	if len(got) != want {
		t.Errorf("delivered %d events, want %d (total minus the lost chunk)", len(got), want)
	}
	// The surviving events are exactly the originals minus chunk 3's span.
	var skipStart int
	for i := 0; i < 3; i++ {
		skipStart += int(chunks[i].Events)
	}
	for i := 0; i < len(got); i++ {
		j := i
		if i >= skipStart {
			j = i + int(chunks[3].Events)
		}
		if got[i] != events[j] {
			t.Fatalf("surviving event %d does not match original %d", i, j)
		}
	}
}

func TestV2TruncatedTail(t *testing.T) {
	events := genEvents(1200)
	data := writeV2(t, events, 256)
	chunks, _ := ScanChunks(data)
	last := chunks[len(chunks)-1]
	// Cut into the last chunk's payload.
	cut := data[:int(last.Offset)+chunkHdrLen+last.Payload/2]

	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := readAll(r)
	if !errors.Is(rerr, ErrTruncated) {
		t.Fatalf("fail-fast truncated read gave %v, want ErrTruncated", rerr)
	}
	var cce *CorruptChunkError
	if !errors.As(rerr, &cce) {
		t.Fatalf("terminal error = %T, want *CorruptChunkError", rerr)
	}

	// Degraded: the torn tail is accounted and the read ends cleanly.
	r, err = NewReaderOpts(bytes.NewReader(cut), ReaderOptions{Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := readAll(r)
	if rerr != io.EOF {
		t.Fatalf("degraded truncated read ended with %v, want EOF", rerr)
	}
	st := r.Stats()
	if st.SkippedChunks != 1 || st.SkippedEvents != uint64(last.Events) {
		t.Errorf("stats = %+v, want 1 skipped chunk of %d events", st, last.Events)
	}
	if len(got) != len(events)-int(last.Events) {
		t.Errorf("delivered %d events, want %d", len(got), len(events)-int(last.Events))
	}
}

func TestV2DuplicateChunkDropped(t *testing.T) {
	events := genEvents(1000)
	data := writeV2(t, events, 256)
	chunks, _ := ScanChunks(data)
	c := chunks[2]
	end := int(c.Offset) + chunkHdrLen + c.Payload
	dup := append([]byte(nil), data[:end]...)
	dup = append(dup, data[c.Offset:end]...) // replay chunk 2
	dup = append(dup, data[end:]...)

	r, err := NewReader(bytes.NewReader(dup))
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := readAll(r)
	if rerr != io.EOF {
		t.Fatalf("read ended with %v, want EOF", rerr)
	}
	if len(got) != len(events) {
		t.Fatalf("delivered %d events, want %d (replay must be dropped)", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d mismatch after replay", i)
		}
	}
	if st := r.Stats(); st.DuplicateChunks != 1 {
		t.Errorf("DuplicateChunks = %d, want 1", st.DuplicateChunks)
	}
}

func TestV2HeaderErrorClassification(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("PGTRACE9"))); !errors.Is(err, ErrVersion) {
		t.Errorf("unknown version gave %v, want ErrVersion", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic gave %v, want ErrBadMagic", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("PGT"))); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header gave %v, want ErrTruncated", err)
	}
}

func TestWriterOptsValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriterOpts(&buf, WriterOptions{Version: 3}); !errors.Is(err, ErrVersion) {
		t.Errorf("version 3 gave %v, want ErrVersion", err)
	}
}

func TestScanChunksRejectsDamage(t *testing.T) {
	data := writeV2(t, genEvents(300), 128)
	if _, err := ScanChunks([]byte("JUNK")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("ScanChunks on junk gave %v", err)
	}
	if _, err := ScanChunks(data[:len(data)-3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("ScanChunks on torn trace gave %v", err)
	}
	// Payload corruption is visible as a CRC mismatch, not an error.
	bad := corruptPayloadByte(t, data, 0)
	chunks, err := ScanChunks(bad)
	if err != nil {
		t.Fatal(err)
	}
	if chunks[0].CRCOK {
		t.Error("ScanChunks reported a corrupted chunk as CRC-clean")
	}
}

// brokenAfter serves data and then fails every further read with err.
func brokenAfter(data []byte, err error) io.Reader {
	return io.MultiReader(bytes.NewReader(data), iotest.ErrReader(err))
}

// failOnce fails its first read with err and reports EOF after that, so a
// stream with it in the middle resumes past the failure.
type failOnce struct{ err error }

func (f *failOnce) Read([]byte) (int, error) {
	if err := f.err; err != nil {
		f.err = nil
		return 0, err
	}
	return 0, io.EOF
}

// writeV1 encodes events as a v1 trace and returns it with the offset at
// which each event ends.
func writeV1(t *testing.T, events []Event) (data []byte, ends []int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterV1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if err := w.Event(&events[i]); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), ends
}

// TestReadErrorNotDamage: a stream that fails mid-trace is not a damaged
// trace. In fail-fast and degraded mode alike the reader delivers exactly
// the events wholly before the failure and then returns the read error,
// wrapped; no ReadStats field counts it. v2 cuts fall on chunk 2's first
// byte, inside its header and inside its payload; v1 cuts on an event's
// first byte and inside it. The stream either stays broken or would read
// on past a single failure: the error surfaces where it happened either
// way.
func TestReadErrorNotDamage(t *testing.T) {
	boom := errors.New("disk on fire")
	failing := func(data []byte, cut int, once bool) io.Reader {
		if once {
			return io.MultiReader(bytes.NewReader(data[:cut]), &failOnce{boom}, bytes.NewReader(data[cut:]))
		}
		return brokenAfter(data[:cut], boom)
	}
	events := genEvents(2000)
	v2 := writeV2(t, events, 256)
	chunks, err := ScanChunks(v2)
	if err != nil {
		t.Fatal(err)
	}
	c2, before := int(chunks[2].Offset), int(chunks[0].Events+chunks[1].Events)
	v1, ends := writeV1(t, events)
	cases := []struct {
		name string
		data []byte
		cut  int
		want int // events wholly before the cut
	}{
		{"v2-chunk-start", v2, c2, before},
		{"v2-header", v2, c2 + 10, before},
		{"v2-payload", v2, c2 + 30, before},
		{"v1-event-start", v1, ends[99], 100},
		{"v1-mid-event", v1, ends[99] + 1, 100},
	}
	bad := append([]byte(nil), v2...)
	bad[chunks[1].Offset] ^= 0xff // chunk 1's marker
	for _, once := range []bool{false, true} {
		for _, c := range cases {
			for _, degraded := range []bool{false, true} {
				r, err := NewReaderOpts(failing(c.data, c.cut, once), ReaderOptions{Degraded: degraded})
				if err != nil {
					t.Fatal(err)
				}
				got, err := readAll(r)
				var cce *CorruptChunkError
				if !errors.Is(err, boom) || errors.As(err, &cce) {
					t.Errorf("%s once=%v degraded=%v: ended with %v, want the read error", c.name, once, degraded, err)
				}
				if len(got) != c.want {
					t.Errorf("%s once=%v degraded=%v: delivered %d events, want %d", c.name, once, degraded, len(got), c.want)
				}
				for i := range got {
					if got[i] != events[i] {
						t.Fatalf("%s: event %d mismatch", c.name, i)
					}
				}
				if st := r.Stats(); st.SkippedChunks != 0 || st.SkippedEvents != 0 || st.ResyncBytes != 0 {
					t.Errorf("%s once=%v degraded=%v: stats %+v count a read error as damage", c.name, once, degraded, st)
				}
			}
		}

		// A failure during a degraded resync is returned too; the damaged
		// chunk before it is still damage.
		r, err := NewReaderOpts(failing(bad, c2+2, once), ReaderOptions{Degraded: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := readAll(r)
		if !errors.Is(err, boom) || len(got) != int(chunks[0].Events) || r.Stats().SkippedChunks != 1 {
			t.Errorf("resync once=%v: %d events, end %v, stats %+v; want chunk 0's %d events, chunk 1 skipped, then the read error",
				once, len(got), err, r.Stats(), chunks[0].Events)
		}
	}
}
