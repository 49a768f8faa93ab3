package harness

// The differential battery: the resolved engine (FanOutResolved) must
// produce Results deeply equal to per-config sequential analyzers for every
// workload × configuration the paper's sweeps use, on both of its
// scheduling topologies. `make differential` runs these under the race
// detector (go test -race -run Differential ./...), so they double as the
// data-race audit of the segment broadcast.

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/isa"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// sweepConfigs is the union of the per-workload configuration sets used by
// Table 3, Table 4 and Figure 8 (the window list is the benchmark's reduced
// sweep; every size still analyzes the same recorded trace).
func sweepConfigs() []core.Config {
	var cfgs []core.Config
	// Table 3: dataflow limit under both syscall policies.
	for _, p := range []core.SyscallPolicy{core.SyscallConservative, core.SyscallOptimistic} {
		cfg := core.Dataflow(p)
		cfg.Profile = false
		cfgs = append(cfgs, cfg)
	}
	// Table 4: the four renaming conditions.
	cfgs = append(cfgs,
		core.Config{Syscalls: core.SyscallConservative},
		core.Config{Syscalls: core.SyscallConservative, RenameRegisters: true},
		core.Config{Syscalls: core.SyscallConservative, RenameRegisters: true, RenameStack: true},
		core.Config{Syscalls: core.SyscallConservative, RenameRegisters: true, RenameStack: true, RenameData: true},
	)
	// Figure 8: window sizes over the full-renaming configuration.
	for _, size := range []int{1, 128, 8192, 0} {
		cfg := core.Dataflow(core.SyscallConservative)
		cfg.Profile = false
		cfg.WindowSize = size
		cfgs = append(cfgs, cfg)
	}
	// One profile-collecting configuration, so bucketed histograms are
	// compared too (Figure 7's shape).
	cfgs = append(cfgs, core.Dataflow(core.SyscallConservative))
	return cfgs
}

// recordWorkload simulates one workload at scale 1 into an EventBuffer. The
// trace is capped at 500k events — every engine replays the identical
// buffer, so the equivalence check is unaffected, but the race-detector
// run of the battery stays bounded even for espressox's 6.7M-instruction
// trace.
func recordWorkload(t *testing.T, w *workloads.Workload) *trace.EventBuffer {
	t.Helper()
	s := NewSuite(1)
	s.MaxInstr = 500_000
	buf := &trace.EventBuffer{}
	if _, err := w.Run(s.Scale, s.options(), buf, s.MaxInstr); err != nil {
		t.Fatalf("workload %s: %v", w.Name, err)
	}
	return buf
}

// sequentialResults is the differential battery's reference: one
// core.Analyzer per config, each replaying the whole recording on its own.
func sequentialResults(t testing.TB, buf *trace.EventBuffer, cfgs []core.Config) []*core.Result {
	t.Helper()
	out := make([]*core.Result, len(cfgs))
	for i, cfg := range cfgs {
		a := core.NewAnalyzer(cfg)
		if err := buf.ReplayBatches(context.Background(), a); err != nil {
			t.Fatalf("config %d: sequential reference: %v", i, err)
		}
		r, err := a.Finish()
		if err != nil {
			t.Fatalf("config %d: sequential reference: %v", i, err)
		}
		out[i] = r
	}
	return out
}

// topologies are FanOutResolved's two scheduling topologies: the SegRing
// broadcast to one scheduler goroutine per config (multi-core hosts), and
// the inline serial path (single CPU or Concurrency 1), which replays a
// gang-eligible group as one SchedulerGang.
var topologies = []struct {
	name   string
	serial bool
}{{"ring", false}, {"serial", true}}

// checkTopology runs produce through FanOutResolved on one topology and
// requires every config's Result deep-equal to want and the delivered
// ReadStats equal to wantStats.
func checkTopology(t *testing.T, serial bool, produce func(*ResolverStream) error, cfgs []core.Config, depth int, want []*core.Result, wantStats trace.ReadStats) {
	t.Helper()
	name := "ring"
	if serial {
		name = "serial"
	}
	got, rstats, err := fanOutResolved(context.Background(), produce, cfgs, depth, serial)
	if err != nil {
		t.Fatalf("%s topology: %v", name, err)
	}
	if rstats != wantStats {
		t.Errorf("%s topology: ReadStats = %+v, want %+v", name, rstats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("%s topology: %d results, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s topology, config %d: resolved engine diverged from the sequential analyzer\n got: %v\nwant: %v",
				name, i, got[i], want[i])
		}
	}
}

// checkResolved pins FanOutResolved against per-config sequential analyzers
// on one recording, on both scheduling topologies.
func checkResolved(t *testing.T, buf *trace.EventBuffer, cfgs []core.Config, depth int) {
	t.Helper()
	want := sequentialResults(t, buf, cfgs)
	for _, top := range topologies {
		checkTopology(t, top.serial, resolvedReplayProducer(buf), cfgs, depth, want, buf.Stats())
	}
}

// TestDifferentialEngine is the core equivalence proof: for every workload,
// one recorded trace resolved once and scheduled under the
// Table3/Table4/Figure8 configuration union yields Results deep-equal to
// per-config sequential analyzers, on both scheduling topologies.
func TestDifferentialEngine(t *testing.T) {
	cfgs := sweepConfigs()
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			checkResolved(t, recordWorkload(t, w), cfgs, 0)
		})
	}
}

// TestDifferentialStreamingVsBuffered pins Suite.AnalyzeMulti at
// Concurrency 4 against the streaming engine (one analyzer per config fed
// live during simulation) on three workloads. The name is older than the
// engine it now checks: Concurrency 4 once selected a buffered fan-out,
// and today runs the resolved engine.
func TestDifferentialStreamingVsBuffered(t *testing.T) {
	cfgs := sweepConfigs()
	for _, name := range []string{"xlispx", "matrixx", "spicex"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		streamSuite := NewSuite(1)
		streamSuite.MaxInstr = 600_000
		streamed, err := streamSuite.analyzeStreaming(context.Background(), w, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		parSuite := NewSuite(1)
		parSuite.MaxInstr = 600_000
		parSuite.Concurrency = 4
		resolved, err := parSuite.AnalyzeMulti(context.Background(), w, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range streamed {
			if !reflect.DeepEqual(streamed[i], resolved[i]) {
				t.Errorf("%s config %d: streaming and resolved engines differ\nstream:   %v\nresolved: %v",
					name, i, streamed[i], resolved[i])
			}
		}
	}
}

// TestDifferentialSuiteDrivers compares whole experiment drivers — the rows
// the paper's tables are rendered from — between a fully serial suite and a
// fully parallel one.
func TestDifferentialSuiteDrivers(t *testing.T) {
	serial := suite("xlispx", "naskerx", "matrixx")
	serial.Parallelism = 1
	serial.Concurrency = 1
	par := suite("xlispx", "naskerx", "matrixx")
	par.Parallelism = 4
	par.Concurrency = 4

	s3, err := serial.Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p3, err := par.Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s3, p3) {
		t.Errorf("Table3 rows differ:\nserial:   %+v\nparallel: %+v", s3, p3)
	}

	s4, err := serial.Table4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p4, err := par.Table4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s4, p4) {
		t.Errorf("Table4 rows differ:\nserial:   %+v\nparallel: %+v", s4, p4)
	}

	sizes := []int{1, 128, 8192, 0}
	s8, err := serial.Figure8(context.Background(), sizes)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := par.Figure8(context.Background(), sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s8, p8) {
		t.Errorf("Figure8 series differ:\nserial:   %+v\nparallel: %+v", s8, p8)
	}
}

// TestDifferentialBatchedVsPerEvent proves the batched delivery path is
// observationally identical to per-event delivery: for recorded workloads,
// an analyzer fed one event at a time (the exported copying Replay) and an
// analyzer fed slices (ReplayBatches) produce deeply-equal Results —
// including the governor accounting, whose check cadence must not shift
// with batch boundaries.
func TestDifferentialBatchedVsPerEvent(t *testing.T) {
	cfgs := sweepConfigs()
	gov := core.Dataflow(core.SyscallConservative)
	gov.Profile = false
	gov.WindowSize = 2048
	gov.MemBudget = 64 << 10
	gov.BudgetPolicy = budget.Degrade
	cfgs = append(cfgs, gov)

	for _, name := range []string{"xlispx", "matrixx", "espressox"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			buf := recordWorkload(t, w)
			for i, cfg := range cfgs {
				perEvent := core.NewAnalyzer(cfg)
				if err := buf.Replay(perEvent); err != nil {
					t.Fatalf("config %d: per-event replay: %v", i, err)
				}
				want, err := perEvent.Finish()
				if err != nil {
					t.Fatalf("config %d: per-event finish: %v", i, err)
				}
				batched := core.NewAnalyzer(cfg)
				if err := buf.ReplayBatches(context.Background(), batched); err != nil {
					t.Fatalf("config %d: batched replay: %v", i, err)
				}
				got, err := batched.Finish()
				if err != nil {
					t.Fatalf("config %d: batched finish: %v", i, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("config %d: batched and per-event results differ\nper-event: %v\nbatched:   %v",
						i, want, got)
				}
			}
		})
	}
}

// TestFanOutErrorAggregation: an invalid event fails validation once, in
// the shared resolver, so the resolved fan-out reports it once — as the
// producer's own error, located at its replay position — instead of once
// per configuration, on both scheduling topologies.
func TestFanOutErrorAggregation(t *testing.T) {
	buf := &trace.EventBuffer{}
	good := trace.Event{PC: 0x400000, Ins: isa.Instruction{Op: isa.ADDI, Rt: isa.T0, Rs: isa.Zero, Imm: 1}}
	for i := 0; i < 100; i++ {
		if err := buf.Event(&good); err != nil {
			t.Fatal(err)
		}
	}
	// A load with no memory access fails core's event validation.
	bad := trace.Event{PC: 0x400190, Ins: isa.Instruction{Op: isa.LW, Rt: isa.T1, Rs: isa.SP}}
	if err := buf.Event(&bad); err != nil {
		t.Fatal(err)
	}

	cfgs := make([]core.Config, 6)
	for i := range cfgs {
		cfgs[i] = core.Dataflow(core.SyscallConservative)
		cfgs[i].Profile = false
		cfgs[i].WindowSize = 1 << i
	}
	for _, top := range topologies {
		_, _, err := fanOutResolved(context.Background(), resolvedReplayProducer(buf), cfgs, 0, top.serial)
		if err == nil {
			t.Fatalf("%s: fan-out over a poisoned buffer succeeded", top.name)
		}
		if !strings.Contains(err.Error(), "trace event 100") {
			t.Errorf("%s: error does not locate the poisoned event: %v", top.name, err)
		}
		if strings.Contains(err.Error(), "config") {
			t.Errorf("%s: validation error was reported per config: %v", top.name, err)
		}
	}
}
