package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"paragraph/internal/isa"
	"paragraph/internal/minic"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// The placement core has two loops: runUnlimited for the paper's unlimited
// configs and run's general loop for the rest. The tests here hold the two
// to each other by forcing an unlimited config through the general loop,
// the test-only switch being the replay's unlimited flag.

// unlimitedConfigs is every config that takes the unlimited loop, up to
// latencies: both syscall policies × Table 4's four renaming conditions ×
// profile on and off.
func unlimitedConfigs() []Config {
	var cfgs []Config
	for _, sys := range []SyscallPolicy{SyscallConservative, SyscallOptimistic} {
		for _, ren := range [][3]bool{{}, {true, false, false}, {true, true, false}, {true, true, true}} {
			for _, prof := range []bool{false, true} {
				cfgs = append(cfgs, Config{Syscalls: sys, RenameRegisters: ren[0], RenameStack: ren[1],
					RenameData: ren[2], Profile: prof})
			}
		}
	}
	return cfgs
}

// onGeneralLoop forces a's replays through run's general loop.
func onGeneralLoop(a *Analyzer) *Analyzer {
	a.rp.unlimited = false
	return a
}

// TestUnlimitedLoopSelection: a config takes the unlimited loop exactly
// when it has no window, no FU limit, perfect branches, no lifetimes or
// sharing, no storage profile and no budget; latencies, profiles and the
// syscall and renaming switches do not matter. A death schedule sends even
// an unlimited config through the general loop, and a checkpoint's
// restored analyzer chooses as its config does.
func TestUnlimitedLoopSelection(t *testing.T) {
	for _, cfg := range unlimitedConfigs() {
		for _, lat := range []func(*Config){func(*Config) {}, func(c *Config) { c.UnitLatency = true },
			func(c *Config) { c.ProfileBuckets = 16 }} {
			lat(&cfg)
			if !NewAnalyzer(cfg).rp.unlimited {
				t.Errorf("%+v does not take the unlimited loop", cfg)
			}
		}
	}
	limits := map[string]func(*Config){
		"window":          func(c *Config) { c.WindowSize = 64 },
		"functional unit": func(c *Config) { c.FunctionalUnits = 4 },
		"stall branches":  func(c *Config) { c.Branches = BranchStall },
		"two-bit":         func(c *Config) { c.Branches = BranchTwoBit },
		"lifetimes":       func(c *Config) { c.Lifetimes = true },
		"sharing":         func(c *Config) { c.Sharing = true },
		"storage profile": func(c *Config) { c.StorageProfile = true },
		"budget":          func(c *Config) { c.MemBudget = 1 << 30 },
	}
	for name, limit := range limits {
		cfg := Dataflow(SyscallConservative)
		limit(&cfg)
		if NewAnalyzer(cfg).rp.unlimited {
			t.Errorf("a config with a %s takes the unlimited loop", name)
		}
	}

	// A death schedule arrives after construction: the replay then takes
	// the general loop, which evicts, and the results still agree.
	events := richTrace(rand.New(rand.NewSource(61)), 3000)
	cfg := Dataflow(SyscallConservative)
	tr, err := trace.NewReader(storeTrace(t, events))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ComputeDeathSchedule(tr)
	if err != nil {
		t.Fatal(err)
	}
	twoPass := NewAnalyzer(cfg)
	if err := twoPass.UseDeathSchedule(ds); err != nil {
		t.Fatal(err)
	}
	onePass := NewAnalyzer(cfg)
	for _, a := range []*Analyzer{twoPass, onePass} {
		if err := a.Events(events); err != nil {
			t.Fatal(err)
		}
	}
	if twoPass.maxLiveMem >= onePass.maxLiveMem {
		t.Errorf("two-pass peak of %d live words, one-pass %d: the death schedule evicted nothing",
			twoPass.maxLiveMem, onePass.maxLiveMem)
	}
	if got, want := twoPass.MustFinish(), onePass.MustFinish(); got.CriticalPath != want.CriticalPath || got.Operations != want.Operations {
		t.Errorf("two-pass %v, one-pass %v", got, want)
	}

	cp := NewAnalyzer(cfg).Snapshot()
	if !cp.Restore().rp.unlimited {
		t.Error("a restored unlimited analyzer takes the general loop")
	}
}

// TestReplayLoopsAgree: under every unlimited config the unlimited loop and
// the general loop leave the same state. Each trace — the ten analogues'
// scale-1 executions, capped, and random traces — is replayed both ways
// twice: by analyzers fed batches, whose slot tables and checkpoint bytes
// must match at a mid-stream Snapshot and whose Results must match at the
// end, and by schedulers replaying one whole-trace resolution, whose
// Results must match.
func TestReplayLoopsAgree(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		t.Parallel()
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(70 + seed))
			checkReplayLoops(t, randomTrace(rng, 1500), 1+int(seed)*300)
			checkReplayLoops(t, richTrace(rng, 1500), 7+int(seed)*300)
		}
		// Replays that place nothing — under optimistic syscalls nothing
		// at all, under conservative ones only the syscalls — must leave
		// "no operation yet" as it was, then operations must follow.
		idle := []trace.Event{{Ins: isa.Instruction{Op: isa.NOP}}, evSyscall(),
			{PC: 0x400010, Ins: isa.Instruction{Op: isa.BEQ, Rs: isa.T0, Rt: isa.T1, Imm: -4}, Taken: true},
			{Ins: isa.Instruction{Op: isa.JR, Rs: isa.RA}}}
		var quiet []trace.Event
		for len(quiet) < 3*trace.DefaultBatchEvents {
			quiet = append(quiet, idle...)
		}
		checkReplayLoops(t, quiet, 100)
		checkReplayLoops(t, append(quiet, richTrace(rand.New(rand.NewSource(79)), 500)...), trace.DefaultBatchEvents)
		// Calls rebind the return address after its value was read: each
		// binding starts a value with no consumers.
		call := []trace.Event{{Ins: isa.Instruction{Op: isa.JALR, Rd: isa.RA, Rs: isa.T3}},
			evAdd(isa.T0, isa.RA, isa.T1), evStore(isa.RA, 0x7fff0040, trace.SegStack)}
		var calls []trace.Event
		for len(calls) < 600 {
			calls = append(calls, call...)
		}
		checkReplayLoops(t, calls, 64)
	})
	capped := uint64(1 << 16)
	if raceDetectorEnabled {
		capped = 1 << 11
	}
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var events []trace.Event
			sink := trace.SinkFunc(func(e *trace.Event) error { events = append(events, *e); return nil })
			if _, err := w.Run(1, minic.Options{}, sink, capped); err != nil {
				t.Fatal(err)
			}
			checkReplayLoops(t, events, trace.DefaultBatchEvents)
		})
	}
}

// checkReplayLoops replays events under every unlimited config on both
// loops, feeding the analyzers batches of the given size.
func checkReplayLoops(t *testing.T, events []trace.Event, batch int) {
	t.Helper()
	var segs []*DepSegment
	res := NewResolver(Config{}, func(seg *DepSegment) error { segs = append(segs, seg); return nil })
	if err := res.Events(events); err != nil {
		t.Fatal(err)
	}
	if err := res.Flush(); err != nil {
		t.Fatal(err)
	}
	feed := func(a *Analyzer, evs []trace.Event) {
		t.Helper()
		for lo := 0; lo < len(evs); lo += batch {
			if err := a.Events(evs[lo:min(lo+batch, len(evs))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	mid := len(events) / 2
	for _, cfg := range unlimitedConfigs() {
		fast, general := NewAnalyzer(cfg), onGeneralLoop(NewAnalyzer(cfg))
		feed(fast, events[:mid])
		feed(general, events[:mid])
		cps := [2]*Checkpoint{fast.Snapshot(), general.Snapshot()}
		if !slices.Equal(fast.slots, general.slots) {
			t.Fatalf("%+v: slot tables differ after %d events", cfg, mid)
		}
		var bufs [2]bytes.Buffer
		for i, cp := range cps {
			if err := WriteCheckpoint(&bufs[i], cp); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
			t.Fatalf("%+v: checkpoints after %d events differ (%d vs %d bytes)", cfg, mid, bufs[0].Len(), bufs[1].Len())
		}
		feed(fast, events[mid:])
		feed(general, events[mid:])
		want := general.MustFinish()
		if got := fast.MustFinish(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: analyzer on the unlimited loop %v, general loop %v", cfg, got, want)
		}

		sched := [2]*Scheduler{NewScheduler(cfg), NewScheduler(cfg)}
		onGeneralLoop(sched[1].a)
		var results [2]*Result
		for i, s := range sched {
			for _, seg := range segs {
				if err := s.Apply(seg); err != nil {
					t.Fatal(err)
				}
			}
			r, err := s.Finish(res.Totals())
			if err != nil {
				t.Fatal(err)
			}
			results[i] = r
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Fatalf("%+v: scheduler on the unlimited loop %v, general loop %v", cfg, results[0], results[1])
		}
		if !reflect.DeepEqual(results[0], want) {
			t.Fatalf("%+v: scheduler %v, analyzer %v", cfg, results[0], want)
		}
	}
}
