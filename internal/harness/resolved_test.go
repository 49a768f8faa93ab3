package harness

// The resolved engine's battery: FanOutResolved — resolve the stream once,
// schedule per config — must produce Results deeply equal to per-config
// sequential analyzers and to the streaming engine on clean,
// damaged/degraded, and governed workloads, whatever mix of syscall and
// renaming policies the configs carry, on both scheduling topologies.
// `make differential` runs the Differential tests here under the race
// detector, so they double as the data-race audit of the segment
// broadcast: one resolver goroutine publishing segments that N scheduler
// goroutines replay concurrently, and recycling the ones the ring
// displaces.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/faultinject"
	"paragraph/internal/isa"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// windowSweepConfigs is the Figure 8 shape: one syscall and renaming
// policy, many window sizes.
func windowSweepConfigs() []core.Config {
	var cfgs []core.Config
	for _, size := range []int{1, 32, 128, 2048, 65536, 0} {
		cfg := core.Dataflow(core.SyscallConservative)
		cfg.Profile = false
		cfg.WindowSize = size
		cfgs = append(cfgs, cfg)
	}
	// One profile-collecting config so bucketed histograms cross the
	// batched-update path too.
	cfgs = append(cfgs, core.Dataflow(core.SyscallConservative))
	return cfgs
}

// resolvedReplayProducer adapts a recorded EventBuffer to FanOutResolved's
// producer contract.
func resolvedReplayProducer(buf *trace.EventBuffer) func(*ResolverStream) error {
	return func(rs *ResolverStream) error {
		if err := buf.ReplayBatches(context.Background(), rs); err != nil {
			return err
		}
		rs.SetStats(buf.Stats())
		return nil
	}
}

// ringTestEvent is a minimal event the analyzer accepts (register-register
// ALU op, no memory access).
func ringTestEvent() trace.Event {
	return trace.Event{PC: 0x400000, Ins: isa.Instruction{Op: isa.ADDI, Rt: isa.T0, Rs: isa.Zero, Imm: 1}}
}

// endlessProducer feeds ringTestEvent until the stream refuses it.
func endlessProducer(rs *ResolverStream) error {
	e := ringTestEvent()
	for {
		if err := rs.Event(&e); err != nil {
			return err
		}
	}
}

// damagedTrace records a naskerx trace and damages it: corrupt chunks, a
// duplicate chunk and a torn tail. It returns the bytes and a degraded
// whole-trace read of them.
func damagedTrace(t *testing.T) ([]byte, *trace.EventBuffer) {
	t.Helper()
	data := recordTrace(t, "naskerx", 150_000)
	for i := range []int{0, 1} {
		var err error
		for _, c := range []int{3, 11} {
			if data, err = faultinject.CorruptChunk(data, c, int64(c+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var err error
	if data, err = faultinject.DuplicateChunk(data, 6); err != nil {
		t.Fatal(err)
	}
	data = faultinject.Truncate(data, 9)

	rd, err := trace.NewReaderOpts(bytes.NewReader(data), trace.ReaderOptions{Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	buf := &trace.EventBuffer{}
	if err := rd.ForEachBatch(buf.Events); err != nil {
		t.Fatalf("degraded reference read: %v", err)
	}
	buf.SetStats(rd.Stats())
	if buf.Stats().SkippedChunks == 0 || buf.Stats().DuplicateChunks == 0 {
		t.Fatalf("damage fixture is not exercising degradation: %+v", buf.Stats())
	}
	return data, buf
}

// degradedProducer streams a degraded read of data straight into the
// resolver, never holding more than the segment ring's worth of records.
func degradedProducer(data []byte) func(*ResolverStream) error {
	return func(rs *ResolverStream) error {
		r, err := trace.NewReaderOpts(bytes.NewReader(data), trace.ReaderOptions{Degraded: true})
		if err != nil {
			return err
		}
		if err := r.ForEachBatch(rs.Events); err != nil {
			return err
		}
		rs.SetStats(r.Stats())
		return nil
	}
}

// governedConfigs pairs a config whose window degrades under its own
// MemBudget with an ungoverned one.
func governedConfigs() []core.Config {
	gov := core.Dataflow(core.SyscallConservative)
	gov.Profile = false
	gov.WindowSize = 2048
	gov.MemBudget = 64 << 10
	gov.BudgetPolicy = budget.Degrade
	return []core.Config{gov, core.Dataflow(core.SyscallConservative)}
}

// TestDifferentialResolvedEngine: the same recorded trace pushed through
// one resolver into a window sweep's schedulers yields Results deeply
// equal to per-config sequential analyzers, through a deliberately tiny
// segment ring and through the serial batched sweep.
func TestDifferentialResolvedEngine(t *testing.T) {
	cfgs := windowSweepConfigs()
	for _, name := range []string{"xlispx", "matrixx", "spicex"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, ok := workloads.ByName(name)
			if !ok {
				t.Fatalf("unknown workload %q", name)
			}
			checkResolved(t, recordWorkload(t, w), cfgs, trace.MinSegRingDepth)
		})
	}
}

// TestDifferentialResolvedTopologies pins FanOutResolved's scheduling
// topologies against sequential analyzers on one recorded trace: the
// SegRing broadcast (multi-core hosts) and the serial batched sweep
// (single CPU), each over a window sweep and over that sweep plus a
// lifetimes- and sharing-collecting config, whose Finish retires every
// live slot.
func TestDifferentialResolvedTopologies(t *testing.T) {
	w, ok := workloads.ByName("xlispx")
	if !ok {
		t.Fatal("unknown workload xlispx")
	}
	buf := recordWorkload(t, w)
	sweepCfgs := windowSweepConfigs()
	lifet := core.Dataflow(core.SyscallConservative)
	lifet.Lifetimes = true
	lifet.Sharing = true
	mixed := append(append([]core.Config{}, sweepCfgs...), lifet)

	for _, tc := range []struct {
		name   string
		serial bool
		cfgs   []core.Config
	}{
		{"ring/sweep", false, sweepCfgs},
		{"serial/sweep", true, sweepCfgs},
		{"ring/mixed", false, mixed},
		{"serial/batched", true, mixed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := sequentialResults(t, buf, tc.cfgs)
			checkTopology(t, tc.serial, resolvedReplayProducer(buf), tc.cfgs, 0, want, buf.Stats())
		})
	}
}

// TestDifferentialResolvedMixedPolicies: Suite.AnalyzeMulti resolves the
// Table3/Table4/Figure8 union — both syscall policies, every renaming
// condition, several windows — once, and every config's Result is
// deep-equal to the streaming engine's (events delivered live during
// simulation through trace.Tee), serial and parallel alike.
// TestDifferentialStreamingVsBuffered covers two more workloads at
// Concurrency 4.
func TestDifferentialResolvedMixedPolicies(t *testing.T) {
	w, ok := workloads.ByName("xlispx")
	if !ok {
		t.Fatal("unknown workload xlispx")
	}
	cfgs := sweepConfigs()
	ref := NewSuite(1)
	ref.MaxInstr = 300_000
	want, _, err := ref.analyzeStreaming(context.Background(), w, cfgs)
	if err != nil {
		t.Fatalf("streaming reference: %v", err)
	}
	for _, workers := range []int{1, 4} {
		s := NewSuite(1)
		s.Concurrency = workers
		s.MaxInstr = 300_000
		got, err := s.AnalyzeMulti(context.Background(), w, cfgs)
		if err != nil {
			t.Fatalf("resolved engine: %v", err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("Concurrency %d config %d: resolved engine diverged from streaming", workers, i)
			}
		}
	}
}

// TestResolvedErrorNamesCallerIndex pins that a resolved-engine failure
// names the caller's config index — the failing config sits behind configs
// with other syscall and renaming policies. Both scheduling topologies are
// forced so the check holds on any host.
func TestResolvedErrorNamesCallerIndex(t *testing.T) {
	w, ok := workloads.ByName("naskerx")
	if !ok {
		t.Fatal("unknown workload naskerx")
	}
	failing := core.Config{Syscalls: core.SyscallConservative, RenameRegisters: true,
		MemBudget: 1, BudgetPolicy: budget.FailFast}
	cfgs := []core.Config{
		core.Dataflow(core.SyscallConservative),
		core.Dataflow(core.SyscallOptimistic),
		failing,
	}
	for _, tc := range []struct {
		name   string
		serial bool
	}{
		{"resolved/ring", false},
		{"resolved/serial", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := resolvedSerial
			resolvedSerial = func() bool { return tc.serial }
			defer func() { resolvedSerial = old }()
			s := NewSuite(1)
			s.MaxInstr = 100_000
			_, err := s.AnalyzeMulti(context.Background(), w, cfgs)
			var berr *budget.Error
			if !errors.As(err, &berr) {
				t.Fatalf("err = %v, want a budget error", err)
			}
			if !strings.HasPrefix(err.Error(), "config 2: ") {
				t.Errorf("err = %q, want it to name config 2", err)
			}
		})
	}
}

// TestDifferentialResolvedDegraded pushes a damaged v2 trace through the
// resolver in degraded-read mode: the resolved engine must see exactly the
// events (and ReadStats accounting) a degraded whole-trace read produces,
// and its Results must match sequential analyzers over that same degraded
// read, on both topologies.
func TestDifferentialResolvedDegraded(t *testing.T) {
	data, buf := damagedTrace(t)
	cfgs := windowSweepConfigs()
	want := sequentialResults(t, buf, cfgs)
	for _, top := range topologies {
		checkTopology(t, top.serial, degradedProducer(data), cfgs, trace.MinSegRingDepth, want, buf.Stats())
	}
}

// TestDifferentialResolvedGoverned: per-config budget governance (window
// degradation under a config-level MemBudget) must behave identically
// whether events arrive raw or as dependence records — including the
// Governor's accounting, which the scheduler meters with its own running
// live-memory count.
func TestDifferentialResolvedGoverned(t *testing.T) {
	w, ok := workloads.ByName("matrixx")
	if !ok {
		t.Fatal("unknown workload matrixx")
	}
	buf := recordWorkload(t, w)
	cfgs := governedConfigs()
	want := sequentialResults(t, buf, cfgs)
	if want[0].Governor == nil || want[0].Governor.Degradations == 0 {
		t.Fatalf("governed fixture is not degrading: %+v", want[0].Governor)
	}
	for _, top := range topologies {
		checkTopology(t, top.serial, resolvedReplayProducer(buf), cfgs, trace.MinSegRingDepth, want, buf.Stats())
	}
}

// TestDifferentialRingEngine drives the segment ring at its minimum depth
// with the mixed-policy Table3/Table4/Figure8 union: schedulers of very
// different speeds (window 1 against whole-trace, profiling against not)
// contend for two slots, so the producer stalls on backpressure and the
// resolver recycles displaced segments constantly. Results must stay
// deep-equal to sequential analyzers.
func TestDifferentialRingEngine(t *testing.T) {
	cfgs := sweepConfigs()
	for _, name := range []string{"xlispx", "matrixx", "spicex"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, ok := workloads.ByName(name)
			if !ok {
				t.Fatalf("unknown workload %q", name)
			}
			buf := recordWorkload(t, w)
			want := sequentialResults(t, buf, cfgs)
			checkTopology(t, false, resolvedReplayProducer(buf), cfgs, trace.MinSegRingDepth, want, buf.Stats())
		})
	}
}

// TestDifferentialRingDegraded streams a degraded read of a damaged trace
// through the minimum-depth segment ring to the mixed-policy union: the
// skip accounting and every Result must match sequential analyzers over
// the same degraded read.
func TestDifferentialRingDegraded(t *testing.T) {
	data, buf := damagedTrace(t)
	cfgs := sweepConfigs()
	want := sequentialResults(t, buf, cfgs)
	checkTopology(t, false, degradedProducer(data), cfgs, trace.MinSegRingDepth, want, buf.Stats())
}

// TestDifferentialRingGoverned adds a config that degrades its window
// under its own budget to the mixed-policy union on the minimum-depth
// segment ring: governance, accounting included, must match the sequential
// analyzer while the other schedulers share the ring.
func TestDifferentialRingGoverned(t *testing.T) {
	w, ok := workloads.ByName("matrixx")
	if !ok {
		t.Fatal("unknown workload matrixx")
	}
	buf := recordWorkload(t, w)
	cfgs := append(sweepConfigs(), governedConfigs()[0])
	want := sequentialResults(t, buf, cfgs)
	if g := want[len(want)-1].Governor; g == nil || g.Degradations == 0 {
		t.Fatalf("governed fixture is not degrading: %+v", g)
	}
	checkTopology(t, false, resolvedReplayProducer(buf), cfgs, trace.MinSegRingDepth, want, buf.Stats())
}

// TestFanOutResolvedProducerError: a producer failure mid-stream surfaces
// as the producer's own error — not rewrapped per config — after the
// schedulers drain what was already published.
func TestFanOutResolvedProducerError(t *testing.T) {
	boom := fmt.Errorf("simulation exploded")
	produce := func(rs *ResolverStream) error {
		e := ringTestEvent()
		for i := 0; i < 10_000; i++ {
			if err := rs.Event(&e); err != nil {
				return err
			}
		}
		return boom
	}
	cfgs := windowSweepConfigs()
	for _, top := range topologies {
		_, _, err := fanOutResolved(context.Background(), produce, cfgs, trace.MinSegRingDepth, top.serial)
		if !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want the producer error", top.name, err)
		}
		if strings.Contains(err.Error(), "config") {
			t.Errorf("%s: producer error got rewrapped as a consumer error: %v", top.name, err)
		}
	}
}

// TestFanOutResolvedCancelLowestIndex: an endless producer saturates the
// segment ring (schedulers apply backpressure, nothing buffers beyond the
// ring), then a caller cancel must unwind producer and every scheduler
// without deadlock. On the ring the lowest-index scheduler's error decides,
// in the "config %d" shape; inline, the producer observes the cancellation
// itself. Either way no result survives.
func TestFanOutResolvedCancelLowestIndex(t *testing.T) {
	cfgs := []core.Config{
		{Syscalls: core.SyscallConservative},
		{Syscalls: core.SyscallConservative, RenameRegisters: true},
		{Syscalls: core.SyscallConservative, RenameRegisters: true, RenameStack: true},
	}
	for _, top := range topologies {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		done := make(chan struct{})
		var results []*core.Result
		var err error
		go func() {
			defer close(done)
			results, _, err = fanOutResolved(ctx, endlessProducer, cfgs, trace.MinSegRingDepth, top.serial)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: cancelled FanOutResolved deadlocked", top.name)
		}
		cancel()
		if err == nil {
			t.Fatalf("%s: cancelled run reported success", top.name)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled in the chain", top.name, err)
		}
		if !top.serial && !strings.Contains(err.Error(), "config 0:") {
			t.Errorf("%s: err = %v, want the lowest-index config identified", top.name, err)
		}
		if results != nil {
			t.Errorf("%s: cancelled run returned results", top.name)
		}
	}
}

// TestFanOutResolvedLeakFree: goroutine accounting after shutdown — clean
// completion, producer failure, and mid-stream cancellation must all leave
// no producer or scheduler goroutines behind, on both topologies.
func TestFanOutResolvedLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	cfgs := []core.Config{
		{Syscalls: core.SyscallConservative},
		{Syscalls: core.SyscallConservative, RenameRegisters: true},
	}
	finite := func(rs *ResolverStream) error {
		e := ringTestEvent()
		for i := 0; i < 50_000; i++ {
			if err := rs.Event(&e); err != nil {
				return err
			}
		}
		return nil
	}
	failing := func(*ResolverStream) error { return fmt.Errorf("early death") }
	for _, top := range topologies {
		if _, _, err := fanOutResolved(context.Background(), finite, cfgs, 0, top.serial); err != nil {
			t.Fatalf("%s: clean run: %v", top.name, err)
		}
		if _, _, err := fanOutResolved(context.Background(), failing, cfgs, 0, top.serial); err == nil {
			t.Fatalf("%s: failing producer reported success", top.name)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		if _, _, err := fanOutResolved(ctx, endlessProducer, cfgs, trace.MinSegRingDepth, top.serial); err == nil {
			t.Fatalf("%s: cancelled run reported success", top.name)
		}
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after shutdown", before, runtime.NumGoroutine())
}

// TestAnalyzeMultiAutoPicksResolved pins AnalyzeMulti's count-based
// dispatch: one config streams straight into its analyzer, and any more —
// a window sweep or Table 4's distinct renaming conditions, with one
// worker or many — take the resolved engine and still match the streaming
// engine. The engine shows through its budget floor: under a Degrade
// budget below the minimum segment ring, a multi-config analysis falls
// back to streaming and says so, while a single config, which holds no
// ring, never does.
func TestAnalyzeMultiAutoPicksResolved(t *testing.T) {
	w, ok := workloads.ByName("matrixx")
	if !ok {
		t.Fatal("unknown workload matrixx")
	}
	distinct := []core.Config{
		{Syscalls: core.SyscallConservative},
		{Syscalls: core.SyscallConservative, RenameRegisters: true},
		{Syscalls: core.SyscallOptimistic, RenameRegisters: true, RenameStack: true},
	}

	tiny := NewSuite(1)
	tiny.MaxInstr = 50_000
	tiny.MemBudget = core.ResolveSegmentBytes
	tiny.BudgetPolicy = budget.Degrade
	for n := 1; n <= len(distinct); n++ {
		rs, err := tiny.AnalyzeMulti(context.Background(), w, distinct[:n])
		if err != nil {
			t.Fatalf("%d configs under a tiny budget: %v", n, err)
		}
		for i, r := range rs {
			if got, want := r.Governor.EngineDowngraded, n > 1; got != want {
				t.Errorf("%d configs, config %d: EngineDowngraded = %v, want %v", n, i, got, want)
			}
		}
	}

	for name, cfgs := range map[string][]core.Config{"shared": windowSweepConfigs(), "distinct": distinct} {
		ref := NewSuite(1)
		ref.MaxInstr = 200_000
		want, _, err := ref.analyzeStreaming(context.Background(), w, cfgs)
		if err != nil {
			t.Fatalf("%s: streaming reference: %v", name, err)
		}
		for _, workers := range []int{1, 4} {
			s := NewSuite(1)
			s.Concurrency = workers
			s.MaxInstr = 200_000
			got, err := s.AnalyzeMulti(context.Background(), w, cfgs)
			if err != nil {
				t.Fatalf("%s: Concurrency %d: %v", name, workers, err)
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s Concurrency %d config %d: resolved engine diverged from streaming", name, workers, i)
				}
			}
		}
	}
}

// TestResolvedRingFootprint pins the segment recycling on the ring path:
// a resolved run allocates segment buffers in proportion to the ring's
// depth, not to the trace's length. The stream touches a fixed handful of
// registers, so slot tables stop growing after the first events and the
// only length-proportional allocation left would be fresh segments; four
// times the events must cost well under one extra segment per ring slot.
func TestResolvedRingFootprint(t *testing.T) {
	cfgs := []core.Config{
		{Syscalls: core.SyscallConservative},
		{Syscalls: core.SyscallOptimistic, RenameRegisters: true},
	}
	const depth = trace.MinSegRingDepth
	alloc := func(events int) uint64 {
		produce := func(rs *ResolverStream) error {
			e := ringTestEvent()
			batch := make([]trace.Event, 1024)
			for i := range batch {
				batch[i] = e
			}
			for n := 0; n < events; n += len(batch) {
				if err := rs.Events(batch); err != nil {
					return err
				}
			}
			return nil
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, _, err := fanOutResolved(context.Background(), produce, cfgs, depth, false)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Instructions != uint64(events) {
			t.Fatalf("analyzed %d events, want %d", res[0].Instructions, events)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// An ADDI is two code words, so 1M events fill ~60 segments; 4M ~240.
	short, long := alloc(1<<20), alloc(4<<20)
	if grow := int64(long) - int64(short); grow > core.ResolveSegmentBytes {
		t.Errorf("4M events allocated %d bytes more than 1M (%d vs %d); segment buffers are growing with the trace, not the ring depth",
			grow, long, short)
	}
}

// TestResolvedInlineFootprint pins segment recycling on the inline path:
// the serial sweep holds each batch by pointer and hands a swept segment
// back to the resolver when its batch slot is refilled, so a Concurrency 1
// analysis allocates no more than the ring path's. A batch that copied
// segments into buffers of its own would allocate each buffer on its first
// copy and again whenever a later copy outgrew it.
func TestResolvedInlineFootprint(t *testing.T) {
	w, ok := workloads.ByName("espressox")
	if !ok {
		t.Fatal("unknown workload espressox")
	}
	old := resolvedSerial
	resolvedSerial = func() bool { return false }
	defer func() { resolvedSerial = old }()
	cfgs := Table3Experiment().Configs
	alloc := func(concurrency int) uint64 {
		s := NewSuite(1)
		s.Concurrency = concurrency
		s.MaxInstr = 2_000_000
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rs, err := s.AnalyzeMulti(context.Background(), w, cfgs)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("Concurrency %d: %v", concurrency, err)
		}
		if rs[0].Instructions != uint64(s.MaxInstr) {
			t.Fatalf("Concurrency %d analyzed %d events, want %d", concurrency, rs[0].Instructions, s.MaxInstr)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(2) // warm the workload's compile and any other one-time state
	ring, inline := alloc(2), alloc(1)
	if excess := int64(inline) - int64(ring); excess > core.ResolveSegmentBytes {
		t.Errorf("inline fan-out allocated %d bytes, ring fan-out %d: %d more than the ring, over one segment (%d bytes)",
			inline, ring, excess, core.ResolveSegmentBytes)
	}
}
