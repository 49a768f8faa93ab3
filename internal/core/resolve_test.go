package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// resolveRun pushes events through a Resolver cut into segments at the
// given event boundaries (via explicit Flush calls) and applies every
// segment to one Scheduler per config as it is emitted, recycling it right
// after — pinning the schedulers' retain-nothing contract against buffer
// reuse — then returns per-config Results.
func resolveRun(t *testing.T, cfgs []Config, events []trace.Event, pts []int) []*Result {
	t.Helper()
	scheds := make([]*Scheduler, len(cfgs))
	for ci, cfg := range cfgs {
		scheds[ci] = NewScheduler(cfg)
	}
	var r *Resolver
	r = NewResolver(cfgs[0], func(seg *DepSegment) error {
		defer r.Reuse(seg)
		for ci, s := range scheds {
			if err := s.Apply(seg); err != nil {
				return fmt.Errorf("config %d: apply: %w", ci, err)
			}
		}
		return nil
	})
	for i := 1; i < len(pts); i++ {
		if err := r.Events(events[pts[i-1]:pts[i]]); err != nil {
			t.Fatalf("resolve [%d:%d): %v", pts[i-1], pts[i], err)
		}
		if err := r.Flush(); err != nil {
			t.Fatalf("flush at %d: %v", pts[i], err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	totals := r.Totals()

	results := make([]*Result, len(cfgs))
	for ci, s := range scheds {
		res, err := s.Finish(totals)
		if err != nil {
			t.Fatalf("config %d: finish: %v", ci, err)
		}
		results[ci] = res
	}
	return results
}

// resolveMatrix is the configuration matrix one resolution must serve:
// deltaConfigs — both syscall policies, lifetimes+sharing, governed and
// warn-only budgets, branch policies, windows, FUs, latencies — plus each
// renaming switch on its own, so every storage-term class mask the
// schedulers derive is exercised against the same class-flagged records.
func resolveMatrix() []Config {
	return append(deltaConfigs(),
		Config{RenameRegisters: true},
		Config{Syscalls: SyscallOptimistic, RenameStack: true},
		Config{RenameData: true, Lifetimes: true, Sharing: true},
	)
}

// TestResolveDifferentialSequential is the stage-split equivalence pin:
// resolving a trace ONCE and replaying the record segments through one
// scheduler per config produces Results deep-equal to feeding every event
// through Analyzer.Event under that config, across the full configuration
// matrix — syscall policies and renaming switches included, since the
// records are policy-free — and random segment cuts.
func TestResolveDifferentialSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cfgs := resolveMatrix()
	for trial := 0; trial < 8; trial++ {
		events := richTrace(rng, 150+rng.Intn(400))
		got := resolveRun(t, cfgs, events, cuts(rng, len(events)))
		for ci, cfg := range cfgs {
			want := analyze(t, cfg, events)
			if !reflect.DeepEqual(got[ci], want) {
				t.Errorf("config %d trial %d: resolver+scheduler diverged from sequential analyzer\n got: %+v\nwant: %+v", ci, trial, got[ci], want)
			}
		}
	}
}

// TestResolveSharedAcrossConfigs pins the whole point of the split: one
// resolution serves schedulers with different windows, functional units,
// latencies, branch policies, syscall policies and renaming — the resolver
// emits full branch records and every syscall regardless of policy, and
// flags each record's destination class, so each scheduler applies its own
// policy.
func TestResolveSharedAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	base := Dataflow(SyscallConservative)
	mk := func(f func(*Config)) Config {
		c := base.Clone()
		f(&c)
		return c
	}
	cfgs := []Config{
		base,
		mk(func(c *Config) { c.WindowSize = 16 }),
		mk(func(c *Config) { c.WindowSize = 1024; c.Profile = false }),
		mk(func(c *Config) { c.FunctionalUnits = 2 }),
		mk(func(c *Config) { c.Branches = BranchStall }),
		mk(func(c *Config) { c.Branches = BranchTwoBit; c.PredictorBits = 4 }),
		mk(func(c *Config) { c.Branches = BranchStatic; c.WindowSize = 64 }),
		mk(func(c *Config) { c.UnitLatency = true; c.Lifetimes = true; c.Sharing = true }),
		mk(func(c *Config) { c.Syscalls = SyscallOptimistic }),
		{Syscalls: SyscallConservative},
		{Syscalls: SyscallConservative, RenameRegisters: true},
		{Syscalls: SyscallConservative, RenameRegisters: true, RenameStack: true},
	}
	for trial := 0; trial < 4; trial++ {
		events := richTrace(rng, 300+rng.Intn(300))
		got := resolveRun(t, cfgs, events, cuts(rng, len(events)))
		for i, cfg := range cfgs {
			want := analyze(t, cfg, events)
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("trial %d config %d: shared resolution diverged from sequential analyzer", trial, i)
			}
		}
	}
}

// TestResolveDifferentialPolicyMatrix pins per-config schedulers fed by one
// recycling resolution deep-equal to the sequential analyzer across window,
// FU, latency and profile variation, under every branch policy (a
// misprediction enlivens the branch's source slots, so each policy's
// enliven pattern must match the analyzer's) and three syscall and
// renaming bases.
func TestResolveDifferentialPolicyMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	group := func(base Config, policy BranchPolicy) []Config {
		base.Branches = policy
		if policy == BranchTwoBit {
			base.PredictorBits = 4
		}
		mk := func(f func(*Config)) Config {
			c := base.Clone()
			f(&c)
			return c
		}
		return []Config{
			base, // profile on, unwindowed
			mk(func(c *Config) { c.WindowSize = 1; c.Profile = false }),
			mk(func(c *Config) { c.WindowSize = 16 }),
			mk(func(c *Config) { c.WindowSize = 1024; c.Profile = false }),
			mk(func(c *Config) { c.FunctionalUnits = 2 }),
			mk(func(c *Config) { c.UnitLatency = true; c.WindowSize = 64 }),
		}
	}
	bases := []Config{
		Dataflow(SyscallConservative),
		{Syscalls: SyscallOptimistic, Profile: true},
		{Syscalls: SyscallConservative, RenameStack: true, Profile: true},
	}
	for bi, base := range bases {
		for _, policy := range []BranchPolicy{BranchPerfect, BranchStall, BranchStatic, BranchTwoBit} {
			cfgs := group(base, policy)
			for trial := 0; trial < 3; trial++ {
				events := richTrace(rng, 200+rng.Intn(400))
				got := resolveRun(t, cfgs, events, cuts(rng, len(events)))
				for i, cfg := range cfgs {
					want := analyze(t, cfg, events)
					if !reflect.DeepEqual(got[i], want) {
						t.Errorf("base %d policy %v trial %d config %d: scheduler diverged from sequential analyzer\n got: %+v\nwant: %+v",
							bi, policy, trial, i, got[i], want)
					}
				}
			}
		}
	}
}

// TestResolverValidationParity pins that the resolver rejects a malformed
// event with the same error — same absolute index — a sequential analyzer
// reports, and that the records before the bad event still flush.
func TestResolverValidationParity(t *testing.T) {
	events := richTrace(rand.New(rand.NewSource(7)), 40)
	// A load with MemSize 0 is the canonical validation failure.
	bad := trace.Event{Ins: isa.Instruction{Op: isa.LW, Rt: isa.T0, Rs: isa.GP}}
	events = append(events, bad)

	a := NewAnalyzer(Config{})
	var want error
	for i := range events {
		if want = a.Event(&events[i]); want != nil {
			break
		}
	}
	if want == nil {
		t.Fatal("sequential analyzer accepted the malformed event")
	}

	var segs int
	r := NewResolver(Config{}, func(*DepSegment) error { segs++; return nil })
	var got error
	for i := range events {
		if got = r.Event(&events[i]); got != nil {
			break
		}
	}
	if got == nil {
		t.Fatal("resolver accepted the malformed event")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resolver error %v, sequential analyzer error %v", got, want)
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("flush after error: %v", err)
	}
	if segs == 0 {
		t.Error("prefix before the bad event was not flushed")
	}
	if r.Totals().Events != 40 {
		t.Errorf("totals count %d events, want 40 (the valid prefix)", r.Totals().Events)
	}
}

// TestSchedulerTotalsMismatch pins that Finish refuses totals whose event
// count disagrees with the replayed stream — dropped or misordered
// segments must not produce a silently wrong Result.
func TestSchedulerTotalsMismatch(t *testing.T) {
	events := richTrace(rand.New(rand.NewSource(9)), 64)
	var segs []*DepSegment
	r := NewResolver(Config{}, func(seg *DepSegment) error {
		segs = append(segs, seg)
		return nil
	})
	if err := r.Events(events); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(Config{})
	for _, seg := range segs {
		if err := s.Apply(seg); err != nil {
			t.Fatal(err)
		}
	}
	bad := r.Totals()
	bad.Events++
	if _, err := s.Finish(bad); err == nil {
		t.Fatal("Finish accepted a totals/replay event-count mismatch")
	}
	if _, err := s.Finish(r.Totals()); err != nil {
		t.Fatalf("Finish with matching totals: %v", err)
	}
	if err := s.Apply(segs[0]); err == nil {
		t.Fatal("Apply after Finish succeeded")
	}
}

// TestResolverSegmentBounds pins that a long stream is cut into multiple
// bounded segments without explicit flushes, and that ResolveSegmentBytes
// really bounds each segment's footprint.
func TestResolverSegmentBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Enough events to overflow resolveSegWords several times.
	events := richTrace(rng, 40_000)
	var segs []*DepSegment
	r := NewResolver(Dataflow(SyscallConservative), func(seg *DepSegment) error {
		segs = append(segs, seg)
		return nil
	})
	if err := r.Events(events); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("40k events produced %d segment(s); want the stream cut", len(segs))
	}
	var total uint64
	for i, seg := range segs {
		total += seg.Events
		if b := int64(len(seg.Code)+len(seg.NewLocs)) * 4; b > ResolveSegmentBytes {
			t.Errorf("segment %d holds %d bytes, above the declared bound %d", i, b, ResolveSegmentBytes)
		}
	}
	if total != uint64(len(events)) {
		t.Errorf("segments cover %d events, want %d", total, len(events))
	}
	if errors.Is(r.Flush(), nil) && r.Totals().Events != uint64(len(events)) {
		t.Errorf("totals = %d events, want %d", r.Totals().Events, len(events))
	}
}
