package core

import (
	"reflect"
	"sync"
	"testing"

	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// TestConfigClone verifies the deep copy: mutating the original's
// LatencyOverride map after cloning must not leak into the clone.
func TestConfigClone(t *testing.T) {
	orig := Dataflow(SyscallConservative)
	orig.LatencyOverride = map[isa.OpClass]int{isa.ClassIntMul: 3}
	clone := orig.Clone()
	if !reflect.DeepEqual(orig, clone) {
		t.Fatalf("clone differs: %+v vs %+v", orig, clone)
	}
	orig.LatencyOverride[isa.ClassIntMul] = 20
	orig.LatencyOverride[isa.ClassIntDiv] = 99
	if clone.LatencyOverride[isa.ClassIntMul] != 3 || len(clone.LatencyOverride) != 1 {
		t.Errorf("clone shares the override map: %v", clone.LatencyOverride)
	}

	// A nil map stays nil — important for DeepEqual comparisons between
	// Results of independently built analyzers.
	var zero Config
	if zero.Clone().LatencyOverride != nil {
		t.Error("cloning a nil override map materialized it")
	}
}

// TestAnalyzerClonesConfig pins NewAnalyzer's isolation guarantee: an
// analyzer is immune to later mutation of the Config it was built from.
func TestAnalyzerClonesConfig(t *testing.T) {
	cfg := Dataflow(SyscallConservative)
	cfg.Profile = false
	cfg.LatencyOverride = map[isa.OpClass]int{isa.ClassIntALU: 1}
	events := []trace.Event{
		evAddi(isa.T0, isa.Zero, 1),
		evAdd(isa.T1, isa.T0, isa.T0),
		evAdd(isa.T2, isa.T1, isa.T1),
	}
	a := NewAnalyzer(cfg)
	cfg.LatencyOverride[isa.ClassIntALU] = 50 // must not affect a
	for i := range events {
		if err := a.Event(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	res := a.MustFinish()
	// Three chained one-level ALU ops: critical path 3 under the original
	// override, 150 under the mutated map.
	if res.CriticalPath != 3 {
		t.Errorf("critical path %d: analyzer saw the mutated override map", res.CriticalPath)
	}
}

// TestConcurrentAnalyzersIndependent runs many analyzers built from the
// same Config value concurrently over the same event sequence (the fan-out
// engine's exact access pattern) and requires bit-identical results. Run
// with -race, this doubles as the shared-state audit for the live well.
func TestConcurrentAnalyzersIndependent(t *testing.T) {
	cfg := Dataflow(SyscallConservative)
	cfg.Lifetimes = true
	cfg.Sharing = true
	cfg.LatencyOverride = map[isa.OpClass]int{isa.ClassIntMul: 4}

	var events []trace.Event
	for i := 0; i < 2000; i++ {
		switch i % 5 {
		case 0:
			events = append(events, evAddi(isa.IntReg(8+i%16), isa.Zero, int32(i)))
		case 1:
			events = append(events, evAdd(isa.T1, isa.T0, isa.T1))
		case 2:
			events = append(events, evStore(isa.T1, 0x10000000+uint32(i%128)*4, trace.SegData))
		case 3:
			events = append(events, evLoad(isa.T3, 0x10000000+uint32(i%128)*4, trace.SegData))
		default:
			events = append(events, evSyscall())
		}
	}

	const n = 8
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			a := NewAnalyzer(cfg)
			for i := range events {
				e := events[i]
				if err := a.Event(&e); err != nil {
					t.Errorf("analyzer %d: event %d: %v", k, i, err)
					return
				}
			}
			r, err := a.Finish()
			if err != nil {
				t.Errorf("analyzer %d: %v", k, err)
				return
			}
			results[k] = r
		}(k)
	}
	wg.Wait()
	for k := 1; k < n; k++ {
		if !reflect.DeepEqual(results[0], results[k]) {
			t.Fatalf("analyzer %d result differs from analyzer 0:\n%+v\nvs\n%+v",
				k, results[k], results[0])
		}
	}
}

// TestParsePolicies covers every CLI spelling of the branch and syscall
// policies, and the round trip through each policy's String.
func TestParsePolicies(t *testing.T) {
	for s, want := range map[string]BranchPolicy{
		"perfect": BranchPerfect,
		"stall":   BranchStall,
		"static":  BranchStatic, "btfn": BranchStatic,
		"twobit": BranchTwoBit, "2bit": BranchTwoBit,
	} {
		if got, ok := ParseBranchPolicy(s); !ok || got != want {
			t.Errorf("ParseBranchPolicy(%q) = %v, %v; want %v", s, got, ok, want)
		}
	}
	for s, want := range map[string]SyscallPolicy{
		"conservative": SyscallConservative, "cons": SyscallConservative,
		"optimistic": SyscallOptimistic, "opt": SyscallOptimistic,
	} {
		if got, ok := ParseSyscallPolicy(s); !ok || got != want {
			t.Errorf("ParseSyscallPolicy(%q) = %v, %v; want %v", s, got, ok, want)
		}
	}
	for _, p := range []BranchPolicy{BranchPerfect, BranchStall, BranchStatic, BranchTwoBit} {
		if back, ok := ParseBranchPolicy(p.String()); !ok || back != p {
			t.Errorf("branch policy %v does not round-trip: %v, %v", p, back, ok)
		}
	}
	for _, p := range []SyscallPolicy{SyscallConservative, SyscallOptimistic} {
		if back, ok := ParseSyscallPolicy(p.String()); !ok || back != p {
			t.Errorf("syscall policy %v does not round-trip: %v, %v", p, back, ok)
		}
	}
	for _, bad := range []string{"", "Perfect", "oracle", "two bit"} {
		if _, ok := ParseBranchPolicy(bad); ok {
			t.Errorf("ParseBranchPolicy accepted %q", bad)
		}
		if _, ok := ParseSyscallPolicy(bad); ok {
			t.Errorf("ParseSyscallPolicy accepted %q", bad)
		}
	}
}
