package harness

// The resolved engine's differential battery: FanOutResolved — resolve the
// stream once, schedule per config — must produce Results deeply equal to
// the buffered, streaming and ring engines on clean, damaged/degraded, and
// governed workloads, whatever mix of syscall and renaming policies the
// configs carry. `make differential` runs the Differential tests here
// under the race detector, so they double as the data-race audit of the
// segment broadcast: one resolver goroutine publishing segments that N
// scheduler goroutines replay concurrently, and recycling the ones the
// ring displaces.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/faultinject"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// windowSweepConfigs is the Figure 8 shape: one syscall and renaming
// policy, many window sizes — a gang-eligible group.
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

// TestDifferentialResolvedEngine: the same recorded trace pushed through
// one resolver into concurrent schedulers yields Results deeply equal to
// the buffered replay (FanOut) and the event ring (FanOutStream), on a
// single-group window sweep with a deliberately tiny segment ring.
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
			buf := recordWorkload(t, w)
			want, err := FanOut(context.Background(), buf, cfgs, 1)
			if err != nil {
				t.Fatalf("buffered reference: %v", err)
			}
			ringGot, _, err := FanOutStream(context.Background(), replayProducer(buf), cfgs, trace.MinRingBatches)
			if err != nil {
				t.Fatalf("ring engine: %v", err)
			}
			got, rstats, err := FanOutResolved(context.Background(), resolvedReplayProducer(buf), cfgs, trace.MinSegRingDepth)
			if err != nil {
				t.Fatalf("resolved engine: %v", err)
			}
			if rstats != buf.Stats() {
				t.Errorf("ReadStats = %+v, want %+v", rstats, buf.Stats())
			}
			if len(got) != len(want) {
				t.Fatalf("result counts differ: %d vs %d", len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("config %d: resolved engine diverged from buffered replay", i)
				}
				if !reflect.DeepEqual(got[i], ringGot[i]) {
					t.Errorf("config %d: resolved engine diverged from ring engine", i)
				}
			}
		})
	}
}

// TestDifferentialResolvedTopologies pins FanOutResolved's scheduling
// topologies against the buffered replay on one recorded trace: the
// SegRing broadcast (multi-core hosts), the serial gang (single-CPU,
// gang-eligible group) and the serial batched sweep (single-CPU, a group
// made gang-ineligible by a lifetimes-collecting config). The serial gate
// is forced both ways so every topology runs regardless of the host's
// core count.
func TestDifferentialResolvedTopologies(t *testing.T) {
	w, ok := workloads.ByName("xlispx")
	if !ok {
		t.Fatal("unknown workload xlispx")
	}
	buf := recordWorkload(t, w)
	gangCfgs := windowSweepConfigs()
	lifet := core.Dataflow(core.SyscallConservative)
	lifet.Lifetimes = true
	lifet.Sharing = true
	mixed := append(append([]core.Config{}, gangCfgs...), lifet)

	for _, tc := range []struct {
		name   string
		serial bool
		cfgs   []core.Config
	}{
		{"ring/sweep", false, gangCfgs},
		{"serial/gang", true, gangCfgs},
		{"ring/mixed", false, mixed},
		{"serial/batched", true, mixed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := resolvedSerial
			resolvedSerial = func() bool { return tc.serial }
			defer func() { resolvedSerial = old }()
			want, err := FanOut(context.Background(), buf, tc.cfgs, 1)
			if err != nil {
				t.Fatalf("buffered reference: %v", err)
			}
			got, rstats, err := FanOutResolved(context.Background(), resolvedReplayProducer(buf), tc.cfgs, 0)
			if err != nil {
				t.Fatalf("resolved engine: %v", err)
			}
			if rstats != buf.Stats() {
				t.Errorf("ReadStats = %+v, want %+v", rstats, buf.Stats())
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("config %d: %s diverged from buffered replay", i, tc.name)
				}
			}
		})
	}
}

// TestDifferentialResolvedMixedPolicies: Suite.AnalyzeMulti under an
// explicit EngineResolved resolves the Table3/Table4/Figure8 union — both
// syscall policies, every renaming condition, several windows — once, and
// every config's Result is deep-equal to the streaming engine's.
func TestDifferentialResolvedMixedPolicies(t *testing.T) {
	w, ok := workloads.ByName("xlispx")
	if !ok {
		t.Fatal("unknown workload xlispx")
	}
	cfgs := sweepConfigs()
	ref := NewSuite(1)
	ref.MaxInstr = 300_000
	ref.Engine = EngineStreaming
	want, err := ref.AnalyzeMulti(context.Background(), w, cfgs)
	if err != nil {
		t.Fatalf("streaming reference: %v", err)
	}
	s := NewSuite(1)
	s.Concurrency = 4
	s.MaxInstr = 300_000
	s.Engine = EngineResolved
	got, err := s.AnalyzeMulti(context.Background(), w, cfgs)
	if err != nil {
		t.Fatalf("resolved engine: %v", err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("config %d: resolved engine diverged from streaming", i)
		}
	}
}

// TestResolvedErrorNamesCallerIndex pins that a resolved-engine failure
// names the caller's config index, as the ring engine does — the failing
// config sits behind configs with other syscall and renaming policies.
// Both scheduling topologies are forced so the check holds on any host.
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
		engine EngineKind
		serial bool
	}{
		{"ring", EngineRing, false},
		{"resolved/ring", EngineResolved, false},
		{"resolved/serial", EngineResolved, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := resolvedSerial
			resolvedSerial = func() bool { return tc.serial }
			defer func() { resolvedSerial = old }()
			s := NewSuite(1)
			s.Engine = tc.engine
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
// and its Results must match a buffered replay of that same degraded read.
func TestDifferentialResolvedDegraded(t *testing.T) {
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
	cfgs := windowSweepConfigs()
	want, err := FanOut(context.Background(), buf, cfgs, 1)
	if err != nil {
		t.Fatalf("buffered reference: %v", err)
	}

	produce := func(rs *ResolverStream) error {
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
	got, rstats, err := FanOutResolved(context.Background(), produce, cfgs, trace.MinSegRingDepth)
	if err != nil {
		t.Fatalf("resolved engine: %v", err)
	}
	if rstats != buf.Stats() {
		t.Errorf("degraded ReadStats = %+v, want %+v", rstats, buf.Stats())
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("config %d: resolved engine diverged on the damaged trace", i)
		}
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
	gov := core.Dataflow(core.SyscallConservative)
	gov.Profile = false
	gov.WindowSize = 2048
	gov.MemBudget = 64 << 10
	gov.BudgetPolicy = budget.Degrade
	cfgs := []core.Config{gov, core.Dataflow(core.SyscallConservative)}

	want, err := FanOut(context.Background(), buf, cfgs, 1)
	if err != nil {
		t.Fatalf("buffered reference: %v", err)
	}
	if want[0].Governor == nil || want[0].Governor.Degradations == 0 {
		t.Fatalf("governed fixture is not degrading: %+v", want[0].Governor)
	}
	got, _, err := FanOutResolved(context.Background(), resolvedReplayProducer(buf), cfgs, trace.MinSegRingDepth)
	if err != nil {
		t.Fatalf("resolved engine: %v", err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("config %d: resolved engine diverged on the governed config", i)
		}
	}
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
	_, _, err := FanOutResolved(context.Background(), produce, cfgs, trace.MinSegRingDepth)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the producer error", err)
	}
	if strings.Contains(err.Error(), "config") {
		t.Errorf("producer error got rewrapped as a consumer error: %v", err)
	}
}

// TestAnalyzeMultiAutoPicksResolved pins EngineAuto's selection: one
// config streams, and any multi-config analysis — a window sweep or
// Table 4's distinct renaming conditions, with one worker or many — takes
// the resolved engine and still matches the streaming engine.
func TestAnalyzeMultiAutoPicksResolved(t *testing.T) {
	shared := windowSweepConfigs()
	distinct := []core.Config{
		{Syscalls: core.SyscallConservative},
		{Syscalls: core.SyscallConservative, RenameRegisters: true},
		{Syscalls: core.SyscallOptimistic, RenameRegisters: true, RenameStack: true},
	}
	for _, workers := range []int{1, 4} {
		s := NewSuite(1)
		s.Concurrency = workers
		if got := s.engineFor(1); got != EngineStreaming {
			t.Errorf("Concurrency %d, one config: auto picked %v, want streaming", workers, got)
		}
		if got := s.engineFor(len(distinct)); got != EngineResolved {
			t.Errorf("Concurrency %d, %d configs: auto picked %v, want resolved", workers, len(distinct), got)
		}
	}
	w, ok := workloads.ByName("matrixx")
	if !ok {
		t.Fatal("unknown workload matrixx")
	}
	for name, cfgs := range map[string][]core.Config{"shared": shared, "distinct": distinct} {
		ref := NewSuite(1)
		ref.MaxInstr = 200_000
		ref.Engine = EngineStreaming
		want, err := ref.AnalyzeMulti(context.Background(), w, cfgs)
		if err != nil {
			t.Fatalf("%s: streaming reference: %v", name, err)
		}
		s := NewSuite(1)
		s.Concurrency = 4
		s.MaxInstr = 200_000
		got, err := s.AnalyzeMulti(context.Background(), w, cfgs)
		if err != nil {
			t.Fatalf("%s: auto engine: %v", name, err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s config %d: auto-selected resolved engine diverged from streaming", name, i)
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
	old := resolvedSerial
	resolvedSerial = func() bool { return false }
	defer func() { resolvedSerial = old }()
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
		res, _, err := FanOutResolved(context.Background(), produce, cfgs, depth)
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
