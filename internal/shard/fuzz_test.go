package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"paragraph/internal/core"
	"paragraph/internal/faultinject"
	"paragraph/internal/stats"
	"paragraph/internal/trace"
)

// FuzzSplitter feeds arbitrary bytes — valid traces, damaged traces, pure
// garbage — through Split and asserts the splitter's contract: it never
// panics, it never cuts mid-chunk (every shard decodes independently and
// delivers exactly the events the plan promised), and the per-shard event
// counts and ReadStats sum to what one monolithic read of the same bytes
// delivers.
func FuzzSplitter(f *testing.F) {
	valid := func(n int, seed int64, chunk int) []byte {
		var buf bytes.Buffer
		w, err := trace.NewWriterOpts(&buf, trace.WriterOptions{ChunkBytes: chunk})
		if err != nil {
			f.Fatal(err)
		}
		events := synthEvents(n, seed)
		for i := range events {
			if err := w.Event(&events[i]); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	small := valid(400, 1, 128)
	f.Add(small, uint8(3), true)
	f.Add(small, uint8(1), false)
	f.Add(valid(50, 2, 64), uint8(7), true)
	f.Add(small[:len(small)/2], uint8(2), true) // torn tail
	if c, err := faultinject.CorruptChunk(small, 2, 99); err == nil {
		f.Add(c, uint8(4), true)
	}
	if d, err := faultinject.DuplicateChunk(small, 1); err == nil {
		f.Add(d, uint8(3), true)
	}
	f.Add([]byte("PGTRACE2"), uint8(2), true)
	f.Add([]byte("PGTRACE1junk"), uint8(2), true)
	f.Add([]byte{}, uint8(1), false)
	f.Add(bytes.Repeat([]byte{0xD7, 'P', 'G', 0xC5}, 50), uint8(5), true)
	// Garbage shorter than a chunk header right before a chunk where a
	// cut falls: one reader of the whole trace reads it as a damaged
	// header, so a shard reader must meet it the same way, not as its own
	// torn tail.
	if chunks, err := trace.ScanChunks(small); err == nil && len(chunks) > 4 {
		at := chunks[4].Offset
		gap := append(append(append([]byte(nil), small[:at]...), 0, 1, 2, 3), small[at:]...)
		f.Add(gap, uint8(7), true)
	}

	f.Fuzz(func(t *testing.T, data []byte, nRaw uint8, degraded bool) {
		n := int(nRaw%8) + 1
		plan, err := Split(data, n, Options{Degraded: degraded})
		if err != nil {
			// Bad magic, v1 traces, and fail-fast corruption are all
			// legitimate refusals; the contract is only about plans that
			// were produced.
			return
		}

		// Structural invariants: contiguous coverage of the whole trace
		// body, indices in order, event chain consistent.
		if len(plan.Shards) < 1 || len(plan.Shards) > n {
			t.Fatalf("%d shards from n=%d", len(plan.Shards), n)
		}
		var events uint64
		next := int64(trace.HeaderBytes)
		for i, sh := range plan.Shards {
			if sh.Index != i || sh.Start != next || sh.StartEvent != events {
				t.Fatalf("shard %d malformed: %+v (want start %d, startEvent %d)", i, sh, next, events)
			}
			events += sh.Events
			next = sh.End
		}
		if next != int64(len(data)) {
			t.Fatalf("plan covers %d bytes of %d", next, len(data))
		}
		if events != plan.TotalEvents {
			t.Fatalf("shard events sum %d != plan total %d", events, plan.TotalEvents)
		}

		// Decode oracle: a monolithic read of the same bytes must deliver
		// exactly the planned events with exactly the planned ReadStats,
		// and each shard must decode independently to its promised count,
		// with per-shard ReadStats summing to the monolithic ones. This is
		// the "never split mid-chunk" property in executable form — a cut
		// inside a chunk cannot decode to the right event counts.
		r, err := trace.NewReaderOpts(bytes.NewReader(data), trace.ReaderOptions{Degraded: degraded})
		if err != nil {
			t.Fatalf("plan produced for unreadable trace: %v", err)
		}
		var whole uint64
		var e trace.Event
		for {
			if err := r.Next(&e); err != nil {
				break
			}
			whole++
		}
		if whole != plan.TotalEvents {
			t.Fatalf("monolithic read delivers %d events, plan says %d", whole, plan.TotalEvents)
		}
		if r.Stats() != plan.Stats {
			t.Fatalf("monolithic ReadStats %+v != plan stats %+v", r.Stats(), plan.Stats)
		}
		ctx := context.Background()
		var sum trace.ReadStats
		for _, sh := range plan.Shards {
			buf, err := DecodeShard(ctx, data, sh, degraded)
			if err != nil {
				t.Fatalf("shard %d failed to decode: %v", sh.Index, err)
			}
			if uint64(buf.Len()) != sh.Events {
				t.Fatalf("shard %d delivered %d events, plan says %d", sh.Index, buf.Len(), sh.Events)
			}
			st := buf.Stats()
			sum.Chunks += st.Chunks
			sum.SkippedChunks += st.SkippedChunks
			sum.SkippedEvents += st.SkippedEvents
			sum.DuplicateChunks += st.DuplicateChunks
			sum.ResyncBytes += st.ResyncBytes
		}
		if sum != plan.Stats {
			t.Fatalf("summed shard ReadStats %+v != monolithic %+v", sum, plan.Stats)
		}
	})
}

// FuzzSpeculativeEquivalence feeds arbitrary bytes and shard counts through
// the chained and speculative drivers and asserts they are observationally
// equivalent: both succeed with deep-equal Results and identical ReadStats,
// or both fail. The speculative pass compiles every shard with no entry
// state, so any divergence here means a record was mis-encoded or the seam
// splice dropped state — exactly the bugs a hand-written differential can
// miss on traces it didn't think of.
func FuzzSpeculativeEquivalence(f *testing.F) {
	valid := func(n int, seed int64, chunk int) []byte {
		var buf bytes.Buffer
		w, err := trace.NewWriterOpts(&buf, trace.WriterOptions{ChunkBytes: chunk})
		if err != nil {
			f.Fatal(err)
		}
		events := synthEvents(n, seed)
		for i := range events {
			if err := w.Event(&events[i]); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	small := valid(400, 21, 128)
	f.Add(small, uint8(3), true)
	f.Add(small, uint8(1), false)
	f.Add(valid(60, 22, 64), uint8(7), false)
	f.Add(small[:len(small)/2], uint8(2), true) // torn tail
	if c, err := faultinject.CorruptChunk(small, 2, 99); err == nil {
		f.Add(c, uint8(4), true)
	}
	if d, err := faultinject.DuplicateChunk(small, 1); err == nil {
		f.Add(d, uint8(3), true)
	}
	f.Add([]byte("PGTRACE2"), uint8(2), true)
	f.Add([]byte{}, uint8(1), false)
	f.Add(bytes.Repeat([]byte{0xD7, 'P', 'G', 0xC5}, 50), uint8(5), true)

	f.Fuzz(func(t *testing.T, data []byte, nRaw uint8, degraded bool) {
		n := int(nRaw%8) + 1
		// Two configs with different branch modeling (on and off), so the
		// shared deltas' branch records are both consumed and ignored.
		cfgs := []core.Config{
			fullConfig(),
			{Branches: core.BranchTwoBit, PredictorBits: 4, WindowSize: 128},
		}
		ctx := context.Background()
		for i, cfg := range cfgs {
			chained, crs, cerr := Analyze(ctx, data, cfg, n, Options{Degraded: degraded})
			spec, srs, serr := Analyze(ctx, data, cfg, n, Options{Degraded: degraded, Speculate: true})
			if (cerr == nil) != (serr == nil) {
				t.Fatalf("config %d: chained and speculative runs disagree on failure: chained err %v, speculative err %v", i, cerr, serr)
			}
			if cerr != nil {
				continue
			}
			if crs != srs {
				t.Fatalf("config %d: ReadStats: chained %+v, speculative %+v", i, crs, srs)
			}
			if !reflect.DeepEqual(chained, spec) {
				t.Fatalf("config %d: speculative Result differs from chained (n=%d, degraded=%v)", i, n, degraded)
			}
		}
	})
}

// v2ShardDelta and v2Delta mirror the retired pgshard-delta-v2 layout, in
// which gob encoded the delta's arrays element by element.
type v2ShardDelta struct {
	StartEvent, Events uint64
	Locs, Code         []uint32
	ClassCounts        [16]uint64
	Syscalls           uint64
}

type v2Delta struct {
	Index, Shards int
	Config        core.Config
	ReadStats     trace.ReadStats
	D             *v2ShardDelta
}

// v2DeltaFile writes d in the retired v2 format.
func v2DeltaFile(t testing.TB, d *Delta) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("pgshard-delta-v2\n")
	old := v2Delta{Index: d.Index, Shards: d.Shards, Config: d.Config, ReadStats: d.ReadStats,
		D: &v2ShardDelta{StartEvent: d.D.StartEvent, Events: d.D.Events, Locs: d.D.Locs, Code: d.D.Code,
			ClassCounts: d.D.ClassCounts, Syscalls: d.D.Syscalls}}
	if err := gob.NewEncoder(&b).Encode(&old); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzReadDelta feeds arbitrary bytes — v3 delta files of small traces,
// their truncations, a v2 file, garbage — through ReadDelta and asserts its
// contract: it never panics, it refuses a retired format by name, and
// every delta it accepts is safe to splice. Splicing an accepted delta
// under a fixed Dataflow config must succeed without reaching ApplyDelta's
// panic recovery (a *core.AnalysisError), which is what makes
// ShardDelta.Validate complete.
func FuzzReadDelta(f *testing.F) {
	cfg := core.Dataflow(core.SyscallConservative)
	for _, n := range []int{0, 40, 300} {
		events := synthEvents(n, int64(n)+1)
		buf := &trace.EventBuffer{}
		if err := buf.Events(events); err != nil {
			f.Fatal(err)
		}
		d, err := BuildShardDelta(context.Background(), buf, cfg, Shard{})
		if err != nil {
			f.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteDelta(&b, &Delta{Shards: 1, Config: cfg, D: d}); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
		for _, cut := range []int{len(deltaMagic), b.Len() / 2, b.Len() - 1} {
			f.Add(b.Bytes()[:cut])
		}
		if n == 40 {
			f.Add(v2DeltaFile(f, &Delta{Shards: 1, Config: cfg, D: d}))
		}
	}
	f.Add([]byte("pgshard-delta-v1\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDelta(bytes.NewReader(data))
		for _, old := range retiredDeltaMagics {
			if bytes.HasPrefix(data, []byte(old)) && !errors.Is(err, ErrDeltaVersion) {
				t.Fatalf("%q file: err = %v, want ErrDeltaVersion", old[:len(old)-1], err)
			}
		}
		if err != nil {
			return
		}
		d.D.StartEvent = 0 // splice at the front of a fresh analyzer
		a := core.NewAnalyzer(cfg)
		err = a.ApplyDelta(d.D)
		var ae *core.AnalysisError
		if errors.As(err, &ae) {
			t.Fatalf("accepted delta panicked the splice: %v", err)
		}
		if err != nil {
			t.Fatalf("accepted delta failed to splice: %v", err)
		}
		if _, err := a.Finish(); err != nil {
			t.Fatalf("finish after splicing an accepted delta: %v", err)
		}
	})
}

// resultFiles runs a two-shard chain over a small trace with every
// mergeable collection on and returns both shard-result files: shard 0's
// carries a checkpoint, shard 1's the finished Result.
func resultFiles(t testing.TB) [][]byte {
	t.Helper()
	data := synthTrace(t, 600, 7, 256)
	plan, err := Split(data, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 2 {
		t.Fatalf("plan has %d shards, want 2", len(plan.Shards))
	}
	cfg := fullConfig()
	a := core.NewAnalyzer(cfg)
	var files [][]byte
	for i, sh := range plan.Shards {
		res, cp, err := RunShardBytes(context.Background(), a, data, cfg, sh, false, 2, i == 0)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteResult(&b, res, cp); err != nil {
			t.Fatal(err)
		}
		files = append(files, b.Bytes())
	}
	return files
}

// rewriteResult decodes a shard-result file, applies edit to its result
// and checkpoint, and encodes it again.
func rewriteResult(t testing.TB, file []byte, edit func(*Result, *core.Checkpoint)) []byte {
	t.Helper()
	res, cp, err := ReadResult(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	edit(res, cp)
	var b bytes.Buffer
	if err := WriteResult(&b, res, cp); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// maxWidth sets a result's profile bucket width to math.MaxInt64.
func maxWidth(res *Result, _ *core.Checkpoint) { res.Stats.Profile.Width = math.MaxInt64 }

// TestReadResultRefusesBadHistogram: a shard result whose profile bucket
// width is not a power of two is refused on read. Merging it would
// double another shard's width past int64 to zero and loop forever.
func TestReadResultRefusesBadHistogram(t *testing.T) {
	bad := rewriteResult(t, resultFiles(t)[0], maxWidth)
	if _, _, err := ReadResult(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("ReadResult = %v, want the bucket width refused", err)
	}
}

// FuzzReadResult feeds arbitrary bytes — real shard-result files, one with
// a checkpoint and one final, their truncations, one with a bucket width
// that stalls a merge, garbage — through ReadResult. It never panics, and
// a result it accepts merges as a one-shard chain without panicking or
// stalling. A longer chain also folds each shard's histograms into its
// predecessors', so the accepted histograms are folded into fresh ones too.
func FuzzReadResult(f *testing.F) {
	files := resultFiles(f)
	for _, file := range files {
		f.Add(file)
		f.Add(file[:len(file)/2])
	}
	f.Add(rewriteResult(f, files[1], maxWidth))
	f.Add([]byte(resultMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if res, _, err := ReadResult(bytes.NewReader(data)); err == nil {
			mergeAccepted(res)
		}
	})
}

// mergeAccepted merges a result ReadResult accepted as a one-shard chain,
// and folds its histograms into fresh ones as a longer chain's merge
// would. Neither may panic or stall.
func mergeAccepted(res *Result) {
	one := *res
	one.Index, one.Shards, one.StartEvent = 0, 1, 0
	_, _, _ = Merge([]*Result{&one})
	for _, st := range []*stats.LevelHistogramState{res.Stats.Profile, res.Stats.Storage} {
		if st != nil {
			stats.NewLevelHistogram(st.MaxBuckets).Merge(stats.LevelHistogramFromState(*st))
		}
	}
}

// Fields FuzzResultFields may overwrite, one bit each in its mask.
const (
	fieldWidth = 1 << iota
	fieldMaxBuckets
	fieldCountsLen
	fieldCounts
	fieldEvents
	fieldStartEvent
	fieldEventOffset
	fieldStorage // edit the storage profile instead of the parallelism profile
)

// fieldEdit is one FuzzResultFields input: which of the two files to edit,
// the mask of fields to overwrite, and the values to write.
type fieldEdit struct {
	Which, Mask  uint8
	Width        int64
	MaxBuckets   int64
	Len          uint16
	Count, Event uint64
}

// bytes encodes the edit the way fieldEditOf decodes it.
func (e fieldEdit) bytes() []byte {
	b := []byte{e.Which, e.Mask}
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Width))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.MaxBuckets))
	b = binary.LittleEndian.AppendUint16(b, e.Len)
	b = binary.LittleEndian.AppendUint64(b, e.Count)
	return binary.LittleEndian.AppendUint64(b, e.Event)
}

// fieldEditOf decodes an edit from fuzz input; missing bytes read as zero.
// Values come from raw input bytes rather than typed fuzz arguments
// because the byte mutators write extreme values (all-ones words, flipped
// high bits), while an integer argument only ever moves by small steps.
func fieldEditOf(data []byte) fieldEdit {
	var buf [36]byte
	copy(buf[:], data)
	le := binary.LittleEndian
	return fieldEdit{
		Which: buf[0], Mask: buf[1],
		Width:      int64(le.Uint64(buf[2:])),
		MaxBuckets: int64(le.Uint64(buf[10:])),
		Len:        le.Uint16(buf[18:]),
		Count:      le.Uint64(buf[20:]),
		Event:      le.Uint64(buf[28:]),
	}
}

// FuzzResultFields mutates decoded fields where FuzzReadResult mutates
// bytes: byte mutations of a gob stream rarely produce a well-formed state
// with an odd field value. It decodes a real two-shard chain's .pgsr files,
// overwrites the fields the input's mask selects — a histogram's bucket
// width, bucket capacity, bucket count and bucket values, the result's
// Events and StartEvent, the checkpoint's EventOffset — with values drawn
// from the input, re-encodes the file with WriteResult, and then reads it
// back with ReadResult and merges what it accepts, alone as in
// FuzzReadResult and in its chain with the other shard. Nothing may panic
// or stall.
func FuzzResultFields(f *testing.F) {
	files := resultFiles(f)
	for _, e := range []fieldEdit{
		{},
		{Which: 1, Mask: fieldWidth | fieldCountsLen, Width: 3, Len: 40},
		{Mask: fieldStorage | fieldMaxBuckets | fieldCounts, MaxBuckets: 1, Count: 1 << 63},
		{Mask: fieldEvents | fieldStartEvent | fieldEventOffset, Event: 599, Count: 1},
	} {
		f.Add(e.bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		e := fieldEditOf(data)
		i := int(e.Which % 2)
		file := rewriteResult(t, files[i], func(res *Result, cp *core.Checkpoint) {
			h := res.Stats.Profile
			if e.Mask&fieldStorage != 0 {
				h = res.Stats.Storage
			}
			if h == nil {
				h = &stats.LevelHistogramState{}
			}
			if e.Mask&fieldWidth != 0 {
				h.Width = e.Width
			}
			if e.Mask&fieldMaxBuckets != 0 {
				h.MaxBuckets = int(e.MaxBuckets)
			}
			if e.Mask&fieldCountsLen != 0 {
				n := int(e.Len)
				h.Counts = append(h.Counts[:min(len(h.Counts), n)], make([]uint64, max(n-len(h.Counts), 0))...)
			}
			if e.Mask&fieldCounts != 0 {
				for j := range h.Counts {
					h.Counts[j] = e.Count >> (j % 64)
				}
				h.Total = e.Count
			}
			if e.Mask&fieldEvents != 0 {
				res.Events = e.Event
			}
			if e.Mask&fieldStartEvent != 0 {
				res.StartEvent = e.Event + e.Count
			}
			if e.Mask&fieldEventOffset != 0 && cp != nil {
				cp.EventOffset = e.Event
			}
		})
		res, _, err := ReadResult(bytes.NewReader(file))
		if err != nil {
			return
		}
		mergeAccepted(res)
		other, _, err := ReadResult(bytes.NewReader(files[1-i]))
		if err != nil {
			t.Fatal(err)
		}
		chain := make([]*Result, 2)
		chain[i], chain[1-i] = res, other
		_, _, _ = Merge(chain)
	})
}
