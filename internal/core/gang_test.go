package core

import (
	"math/rand"
	"reflect"
	"testing"

	"paragraph/internal/trace"
)

// gangRun resolves events with a recycling resolver, replays every segment
// through one SchedulerGang as it is emitted — pinning the gang's
// retain-nothing contract against buffer reuse — and finishes each
// scheduler. Segment cuts happen at the given event boundaries.
func gangRun(t *testing.T, cfgs []Config, events []trace.Event, pts []int) []*Result {
	t.Helper()
	scheds := make([]*Scheduler, len(cfgs))
	for i, cfg := range cfgs {
		scheds[i] = NewScheduler(cfg)
	}
	g := NewSchedulerGang(scheds)
	if g == nil {
		t.Fatal("config group unexpectedly gang-ineligible")
	}
	var r *Resolver
	r = NewResolver(cfgs[0], func(seg *DepSegment) error {
		err := g.Apply(seg)
		r.Reuse(seg)
		return err
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
	g.Seal()
	totals := r.Totals()
	results := make([]*Result, len(cfgs))
	for i, s := range scheds {
		res, err := s.Finish(totals)
		if err != nil {
			t.Fatalf("config %d: finish: %v", i, err)
		}
		results[i] = res
	}
	return results
}

// TestSchedulerGangDifferential pins the gang replay — one pass updating
// every config's levels side by side — deep-equal to the sequential
// analyzer across window, FU, latency and profile variation, under each
// uniform branch policy (misprediction-driven enlivening shares the gang's
// liveness bits, so every policy's enliven pattern must round-trip).
func TestSchedulerGangDifferential(t *testing.T) {
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
	// The syscall firewall and storage-term mask are gang-wide: each base
	// pins one combination of them.
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
				got := gangRun(t, cfgs, events, cuts(rng, len(events)))
				for i, cfg := range cfgs {
					want := analyze(t, cfg, events)
					if !reflect.DeepEqual(got[i], want) {
						t.Errorf("base %d policy %v trial %d config %d: gang diverged from sequential analyzer\n got: %+v\nwant: %+v",
							bi, policy, trial, i, got[i], want)
					}
				}
			}
		}
	}
}

// TestSchedulerGangEligibility pins the fallback boundary: groups the gang
// cannot replay exactly (use-count consumers, per-record tail work, mixed
// branch policies) must be refused so the harness schedules them per
// config.
func TestSchedulerGangEligibility(t *testing.T) {
	base := Dataflow(SyscallConservative)
	mk := func(f func(*Config)) Config {
		c := base.Clone()
		f(&c)
		return c
	}
	scheds := func(cfgs ...Config) []*Scheduler {
		out := make([]*Scheduler, len(cfgs))
		for i, cfg := range cfgs {
			out[i] = NewScheduler(cfg)
		}
		return out
	}
	windowed := mk(func(c *Config) { c.WindowSize = 32 })
	if NewSchedulerGang(scheds(base, windowed)) == nil {
		t.Error("plain window sweep should be gang-eligible")
	}
	opt := Config{Syscalls: SyscallOptimistic, RenameData: true}
	optFU := Config{Syscalls: SyscallOptimistic, RenameData: true, FunctionalUnits: 4}
	if NewSchedulerGang(scheds(opt, optFU)) == nil {
		t.Error("uniform optimistic, data-renamed group should be gang-eligible")
	}
	cases := map[string][]*Scheduler{
		"single scheduler": scheds(base),
		"lifetimes":        scheds(base, mk(func(c *Config) { c.Lifetimes = true })),
		"sharing":          scheds(base, mk(func(c *Config) { c.Sharing = true })),
		"storage profile":  scheds(base, mk(func(c *Config) { c.StorageProfile = true })),
		"governed":         scheds(base, mk(func(c *Config) { c.MemBudget = 1 << 20 })),
		"mixed branches":   scheds(base, mk(func(c *Config) { c.Branches = BranchStall })),
		"mixed syscalls":   scheds(base, mk(func(c *Config) { c.Syscalls = SyscallOptimistic })),
		"mixed renaming":   scheds(base, mk(func(c *Config) { c.RenameStack = false })),
	}
	for name, ss := range cases {
		if NewSchedulerGang(ss) != nil {
			t.Errorf("%s: group must be gang-ineligible", name)
		}
	}
}

// TestSchedulerGangCorruptRecord: a corrupt record kind fails the gang with
// the same diagnostics a per-config replay reports.
func TestSchedulerGangCorruptRecord(t *testing.T) {
	base := Dataflow(SyscallConservative)
	other := base.Clone()
	other.WindowSize = 8
	g := NewSchedulerGang([]*Scheduler{NewScheduler(base), NewScheduler(other)})
	if g == nil {
		t.Fatal("group unexpectedly ineligible")
	}
	seg := &DepSegment{Code: []uint32{7}, Events: 1} // kind 7 does not exist
	if err := g.Apply(seg); err == nil {
		t.Fatal("gang accepted a corrupt record")
	}
}
