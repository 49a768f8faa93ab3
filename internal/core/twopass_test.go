package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"paragraph/internal/budget"
	"paragraph/internal/isa"
	"paragraph/internal/minic"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// storeTrace serializes hand-built events into the binary format with
// synthetic ascending PCs.
func storeTrace(t *testing.T, events []trace.Event) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x400000)
	for i := range events {
		e := events[i]
		e.PC = pc
		pc += 4
		if err := w.Event(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

// sweepTrace writes and reloads n distinct memory words, then repeats; the
// one-pass live well holds all n words, the two-pass one a constant few.
func sweepTrace(n, rounds int) []trace.Event {
	var events []trace.Event
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			addr := uint32(0x10000000 + 4*i)
			events = append(events, evAddi(isa.T0, isa.Zero, int32(i)))
			events = append(events, evStore(isa.T0, addr, trace.SegData))
			events = append(events, evLoad(isa.T1, addr, trace.SegData))
		}
	}
	return events
}

func TestComputeDeathSchedule(t *testing.T) {
	events := []trace.Event{
		evAddi(isa.T0, isa.Zero, 1),
		evStore(isa.T0, 0x10000000, trace.SegData), // idx 1: creates value A
		evLoad(isa.T1, 0x10000000, trace.SegData),  // idx 2: last read of A
		evStore(isa.T0, 0x10000000, trace.SegData), // idx 3: overwrites -> A died at idx 2
		evStore(isa.T0, 0x10000004, trace.SegData), // idx 4: never reused -> no death entry
	}
	rd := storeTrace(t, events)
	r, err := trace.NewReader(rd)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ComputeDeathSchedule(r)
	if err != nil {
		t.Fatal(err)
	}
	// Three deaths: value A (overwritten, last read idx 2), the value
	// that overwrote it (never accessed again, dies at its store idx 3),
	// and the idx-4 store's value (dies at its own creation).
	if ds.Values() != 3 {
		t.Errorf("deaths = %d, want 3", ds.Values())
	}
	want := []death{{2, 0x10000000 >> 2}, {3, 0x10000000 >> 2}, {4, 0x10000004 >> 2}}
	if !reflect.DeepEqual(ds.deaths, want) {
		t.Errorf("deaths = %v, want %v", ds.deaths, want)
	}
}

// TestTwoPassMatchesOnePass: metrics identical, footprint smaller.
func TestTwoPassMatchesOnePass(t *testing.T) {
	events := sweepTrace(64, 4)
	rd := storeTrace(t, events)

	cfg := Dataflow(SyscallConservative)
	cfg.Lifetimes = true
	cfg.Sharing = true

	two, err := AnalyzeTwoPass(rd, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := rd.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.NewReader(rd)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(cfg)
	if err := tr.ForEach(a.Event); err != nil {
		t.Fatal(err)
	}
	one := a.MustFinish()

	if one.CriticalPath != two.CriticalPath || one.Operations != two.Operations ||
		one.Available != two.Available || one.Syscalls != two.Syscalls {
		t.Errorf("metrics differ: one-pass %v, two-pass %v", one, two)
	}
	if one.Lifetimes.Count() != two.Lifetimes.Count() ||
		one.Lifetimes.Mean() != two.Lifetimes.Mean() {
		t.Errorf("lifetime stats differ: %v vs %v", one.Lifetimes.String(), two.Lifetimes.String())
	}
	if one.Sharing.Count() != two.Sharing.Count() {
		t.Errorf("sharing counts differ: %d vs %d", one.Sharing.Count(), two.Sharing.Count())
	}
	// The whole point: the two-pass live well stays small.
	if one.MaxLiveMemoryWords < 64 {
		t.Fatalf("one-pass footprint = %d, expected >= 64", one.MaxLiveMemoryWords)
	}
	if two.MaxLiveMemoryWords > one.MaxLiveMemoryWords/8 {
		t.Errorf("two-pass footprint %d not much smaller than one-pass %d",
			two.MaxLiveMemoryWords, one.MaxLiveMemoryWords)
	}
}

// TestTwoPassKeepsNonRenamedValues: without data renaming, entries must
// survive their last read (the next write still consults lastUse), and the
// analysis must still agree with one-pass.
func TestTwoPassKeepsNonRenamedValues(t *testing.T) {
	events := sweepTrace(16, 3)
	rd := storeTrace(t, events)
	cfg := Config{Syscalls: SyscallConservative, RenameRegisters: true} // stack+data kept
	two, err := AnalyzeTwoPass(rd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	tr, _ := trace.NewReader(rd)
	a := NewAnalyzer(cfg)
	if err := tr.ForEach(a.Event); err != nil {
		t.Fatal(err)
	}
	one := a.MustFinish()
	if one.CriticalPath != two.CriticalPath || one.Available != two.Available {
		t.Errorf("non-renamed metrics differ: %v vs %v", one, two)
	}
	if two.MaxLiveMemoryWords != one.MaxLiveMemoryWords {
		t.Errorf("non-renamed footprints differ: %d vs %d (nothing should be evicted)",
			two.MaxLiveMemoryWords, one.MaxLiveMemoryWords)
	}
}

func TestUseDeathScheduleTooLate(t *testing.T) {
	a := NewAnalyzer(Dataflow(SyscallConservative))
	e := evAddi(isa.T0, isa.Zero, 1)
	if err := a.Event(&e); err != nil {
		t.Fatal(err)
	}
	if err := a.UseDeathSchedule(&DeathSchedule{}); err == nil {
		t.Error("UseDeathSchedule accepted mid-analysis")
	}
}

// TestStorageProfile: the occupancy curve tracks the live well.
func TestStorageProfile(t *testing.T) {
	events := sweepTrace(32, 1)
	cfg := Dataflow(SyscallConservative)
	cfg.StorageProfile = true
	r := analyze(t, cfg, events)
	if len(r.StorageProfile) == 0 {
		t.Fatal("no storage profile")
	}
	last := r.StorageProfile[len(r.StorageProfile)-1]
	if last.Ops < 30 {
		t.Errorf("final occupancy %.1f, want ~32 live words", last.Ops)
	}
	// Occupancy must be nondecreasing for a pure write-sweep.
	var prev float64
	for _, p := range r.StorageProfile {
		if p.Ops < prev-1e-9 {
			t.Errorf("occupancy dipped at %d: %v -> %v", p.Level, prev, p.Ops)
		}
		prev = p.Ops
	}
}

// TestStorageProfileWithEviction: under the two-pass regime the curve stays
// flat instead of growing.
func TestStorageProfileWithEviction(t *testing.T) {
	events := sweepTrace(64, 2)
	rd := storeTrace(t, events)
	cfg := Dataflow(SyscallConservative)
	cfg.StorageProfile = true
	r, err := AnalyzeTwoPass(rd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, p := range r.StorageProfile {
		if p.Ops > peak {
			peak = p.Ops
		}
	}
	if peak > 8 {
		t.Errorf("evicted occupancy peak %.1f, want small", peak)
	}
}

// cancelAfter is a ReadSeeker that fires cancel once cumulative bytes read
// cross a threshold — a deterministic stand-in for a signal arriving while
// the analysis pass is mid-trace.
type cancelAfter struct {
	rs        io.ReadSeeker
	threshold int64
	read      int64
	cancel    context.CancelFunc
}

func (c *cancelAfter) Read(p []byte) (int, error) {
	n, err := c.rs.Read(p)
	c.read += int64(n)
	if c.read >= c.threshold && c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	return n, err
}

func (c *cancelAfter) Seek(offset int64, whence int) (int64, error) {
	return c.rs.Seek(offset, whence)
}

// TestFinalCheckpointOnCancel: with FinalOnCancel set, a pass that observes
// cancellation flushes one last snapshot through OnCheckpoint — even when no
// periodic checkpoint ever fired — and resuming from it reproduces the
// uninterrupted result exactly.
func TestFinalCheckpointOnCancel(t *testing.T) {
	events := sweepTrace(256, 40) // ~30k events: many read batches
	rd := storeTrace(t, events)

	cfg := Dataflow(SyscallConservative)
	cfg.Lifetimes = true

	want, err := AnalyzeTraceOpts(context.Background(), rd, cfg, TwoPassOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cr := &cancelAfter{rs: rd, threshold: rd.Size() / 2, cancel: cancel}
	var final *Checkpoint
	var flushes int
	_, err = AnalyzeTraceOpts(ctx, cr, cfg, TwoPassOptions{
		CheckpointEvery: 1 << 30, // periodic checkpoints never fire
		OnCheckpoint: func(cp *Checkpoint) error {
			final = cp
			flushes++
			return nil
		},
		FinalOnCancel: true,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if flushes != 1 || final == nil {
		t.Fatalf("OnCheckpoint fired %d times, want exactly the final flush", flushes)
	}
	if final.EventOffset == 0 || final.EventOffset >= uint64(len(events)) {
		t.Fatalf("final checkpoint at event %d of %d: not mid-trace", final.EventOffset, len(events))
	}

	got, err := ResumeTwoPass(context.Background(), rd, final, TwoPassOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed result differs from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}

	// Without FinalOnCancel the same interruption saves nothing.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cr2 := &cancelAfter{rs: rd, threshold: rd.Size() / 2, cancel: cancel2}
	flushes = 0
	_, err = AnalyzeTraceOpts(ctx2, cr2, cfg, TwoPassOptions{
		CheckpointEvery: 1 << 30,
		OnCheckpoint:    func(*Checkpoint) error { flushes++; return nil },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if flushes != 0 {
		t.Errorf("OnCheckpoint fired %d times without FinalOnCancel, want 0", flushes)
	}
}

// TestTwoPassSlotsRecycled: in a long two-pass analysis whose words die and
// are rewritten many times, each first touch of an evicted word reuses the
// slot of a dead one, so the analyzer's slot table stays bounded by the
// peak of live words, plus the registers, plus the first touches of one
// pending buffer, instead of growing with every word the trace rewrites.
func TestTwoPassSlotsRecycled(t *testing.T) {
	const words, stores = 4096, 60000
	var events []trace.Event
	for i := 0; i < stores; i++ {
		addr := uint32(0x10000000 + 4*(i%words))
		events = append(events,
			evAddi(isa.T0, isa.Zero, int32(i)),
			evStore(isa.T0, addr, trace.SegData),
			evLoad(isa.T1, addr, trace.SegData))
	}
	rd := storeTrace(t, events)
	tr, err := trace.NewReader(rd)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ComputeDeathSchedule(tr)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(Dataflow(SyscallConservative))
	if err := a.UseDeathSchedule(ds); err != nil {
		t.Fatal(err)
	}
	if err := a.Events(events); err != nil {
		t.Fatal(err)
	}
	res := a.MustFinish()
	if bound := res.MaxLiveMemoryWords + int(isa.NumRegs) + budget.CheckEvery; len(a.slots) > bound {
		t.Fatalf("%d slots after %d stores to %d words; peak live words %d bound them at %d",
			len(a.slots), stores, words, res.MaxLiveMemoryWords, bound)
	}
}

// TestDeathScheduleHeapPerDeath: a death schedule holds each death in one
// (event, word) pair, 16 bytes, so tomcatvx's 110k deaths take under 20
// bytes each on the heap, far less than the live well the schedule empties
// would hold.
func TestDeathScheduleHeapPerDeath(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("heap accounting under -race is distorted")
	}
	w, ok := workloads.ByName("tomcatvx")
	if !ok {
		t.Fatal("no tomcatvx workload")
	}
	recorded := func() []byte {
		var buf bytes.Buffer
		tw, err := trace.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(1, minic.Options{}, tw, 0); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	schedule := func() *DeathSchedule {
		tr, err := trace.NewReader(bytes.NewReader(recorded))
		if err != nil {
			t.Fatal(err)
		}
		ds, err := ComputeDeathSchedule(tr)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ds := schedule()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perDeath := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(ds.Values())
	if ds.Values() < 100000 || perDeath > 20 {
		t.Fatalf("%d deaths hold %.1f heap bytes each, want at most 20", ds.Values(), perDeath)
	}
	t.Logf("%d deaths hold %.1f heap bytes each", ds.Values(), perDeath)
	runtime.KeepAlive(recorded)
	runtime.KeepAlive(ds)
}
