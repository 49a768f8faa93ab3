package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"paragraph/internal/budget"
	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// richTrace extends randomTrace's mix with the event kinds the speculative
// record stream must encode structurally: conditional branches (predictor
// state and source materialization cross shard seams), calls binding
// return-address constants, syscalls and NOPs.
func richTrace(rng *rand.Rand, n int) []trace.Event {
	regs := []isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3, isa.S0, isa.S1}
	var events []trace.Event
	for len(events) < n {
		r1 := regs[rng.Intn(len(regs))]
		r2 := regs[rng.Intn(len(regs))]
		switch rng.Intn(12) {
		case 0, 1, 2:
			events = append(events, evAdd(r1, r2, regs[rng.Intn(len(regs))]))
		case 3:
			events = append(events, evAddi(r1, r2, int32(rng.Intn(64))))
		case 4:
			events = append(events, evLoad(r1, 0x10000000+4*uint32(rng.Intn(32)), trace.SegData))
		case 5:
			events = append(events, evStore(r1, 0x10000000+4*uint32(rng.Intn(32)), trace.SegData))
		case 6:
			events = append(events, evStore(r1, 0x7fff0000+4*uint32(rng.Intn(8)), trace.SegStack))
		case 7:
			imm := int32(rng.Intn(200) - 100)
			events = append(events, trace.Event{
				PC:    0x400000 + 4*uint32(rng.Intn(64)),
				Ins:   isa.Instruction{Op: isa.BEQ, Rs: r1, Rt: r2, Imm: imm},
				Taken: rng.Intn(2) == 0,
			})
		case 8:
			events = append(events, trace.Event{Ins: isa.Instruction{Op: isa.JALR, Rd: isa.RA, Rs: r1}})
		case 9:
			events = append(events, trace.Event{Ins: isa.Instruction{Op: isa.JR, Rs: isa.RA}})
		case 10:
			if rng.Intn(4) == 0 {
				events = append(events, evSyscall())
			} else {
				events = append(events, trace.Event{Ins: isa.Instruction{Op: isa.NOP}})
			}
		case 11:
			events = append(events, trace.Event{Ins: isa.Instruction{Op: isa.MULT, Rs: r1, Rt: r2}})
			events = append(events, trace.Event{Ins: isa.Instruction{Op: isa.MFLO, Rd: regs[rng.Intn(len(regs))]}})
		}
	}
	return events[:n]
}

// deltaConfigs is the configuration matrix the delta differential sweeps:
// every switch the splice applies to the policy-free records (syscall
// policy, renaming, branch policies) or maintains (window, functional
// units, profiles, distributions, budgets, latencies).
func deltaConfigs() []Config {
	zero := Config{}
	df := Dataflow(SyscallConservative)
	windowed := Dataflow(SyscallOptimistic)
	windowed.WindowSize = 24
	windowed.Lifetimes = true
	windowed.Sharing = true
	fu := Config{Syscalls: SyscallOptimistic, FunctionalUnits: 2, StorageProfile: true}
	branchy := Dataflow(SyscallConservative)
	branchy.Branches = BranchTwoBit
	branchy.PredictorBits = 4
	branchy.Lifetimes = true
	branchy.Sharing = true
	stall := Config{Branches: BranchStall, Lifetimes: true, Sharing: true}
	static := Config{Branches: BranchStatic, RenameStack: true, UnitLatency: true}
	slow := Config{LatencyOverride: map[isa.OpClass]int{isa.ClassIntMul: 9}}
	governed := Dataflow(SyscallConservative)
	governed.WindowSize = 64
	governed.MemBudget = 8 << 10
	governed.BudgetPolicy = budget.Degrade
	warn := Config{MemBudget: 4 << 10, BudgetPolicy: budget.WarnOnly, StorageProfile: true}
	return []Config{zero, df, windowed, fu, branchy, stall, static, slow, governed, warn}
}

// buildDelta compiles events[lo:hi] speculatively.
func buildDelta(t testing.TB, events []trace.Event, lo, hi int) *ShardDelta {
	t.Helper()
	r := NewDeltaResolver(uint64(lo), hi-lo)
	if err := r.Events(events[lo:hi]); err != nil {
		t.Fatalf("build [%d:%d): %v", lo, hi, err)
	}
	return r.Delta()
}

// cuts picks 0-3 random cut points splitting n events into segments.
func cuts(rng *rand.Rand, n int) []int {
	pts := []int{0}
	for k := rng.Intn(4); k > 0; k-- {
		pts = append(pts, rng.Intn(n+1))
	}
	pts = append(pts, n)
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j] < pts[j-1]; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	return pts
}

// TestDeltaDifferentialMonolithic is the core equivalence pin: compiling a
// trace into per-segment deltas with no entry state and splicing them in
// order onto a fresh analyzer produces a Result deep-equal to feeding every
// event through Analyzer.Event. The deltas are built once per trial and
// spliced under the whole configuration matrix: the records are
// policy-free, so no config needs its own build.
func TestDeltaDifferentialMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		events := richTrace(rng, 150+rng.Intn(400))
		pts := cuts(rng, len(events))
		var ds []*ShardDelta
		for i := 1; i < len(pts); i++ {
			ds = append(ds, buildDelta(t, events, pts[i-1], pts[i]))
		}
		for ci, cfg := range deltaConfigs() {
			want := analyze(t, cfg, events)
			a := NewAnalyzer(cfg)
			for i, d := range ds {
				if err := a.ApplyDelta(d); err != nil {
					t.Fatalf("config %d trial %d: apply [%d:%d): %v", ci, trial, pts[i], pts[i+1], err)
				}
			}
			got, err := a.Finish()
			if err != nil {
				t.Fatalf("config %d trial %d: finish: %v", ci, trial, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("config %d trial %d cuts %v: speculative splice differs from monolithic:\n got %+v\nwant %+v",
					ci, trial, pts, got, want)
			}
		}
	}
}

// TestDeltaConfigIndependent: one delta, built once, splices deep-equal to
// the sequential analyzer under every config of the matrix — in the
// middle of a run, onto real entry state — and no splice mutates it, so
// concurrent splice chains can share it.
func TestDeltaConfigIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	events := richTrace(rng, 400)
	const cut = 150
	d := buildDelta(t, events, cut, len(events))
	pristine := &ShardDelta{
		StartEvent: d.StartEvent, Events: d.Events, ClassCounts: d.ClassCounts, Syscalls: d.Syscalls,
		Locs: append([]uint32(nil), d.Locs...), Code: append([]uint32(nil), d.Code...),
	}
	for ci, cfg := range deltaConfigs() {
		want := analyze(t, cfg, events)
		a := NewAnalyzer(cfg)
		for i := range events[:cut] {
			if err := a.Event(&events[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.ApplyDelta(d); err != nil {
			t.Fatalf("config %d: apply: %v", ci, err)
		}
		got, err := a.Finish()
		if err != nil {
			t.Fatalf("config %d: finish: %v", ci, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("config %d: a delta built once diverged from the sequential analyzer", ci)
		}
	}
	if !reflect.DeepEqual(d, pristine) {
		t.Error("splicing mutated the shared delta")
	}
}

// TestDeltaSpliceEquivalenceQuick pins the satellite's equivalence property:
// splicing shard i+1's delta onto shard i's exit checkpoint is
// indistinguishable from chaining the events through the restored analyzer.
func TestDeltaSpliceEquivalenceQuick(t *testing.T) {
	cfgs := deltaConfigs()
	f := func(seed int64, rawCut uint16, rawCfg uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := cfgs[int(rawCfg)%len(cfgs)]
		events := richTrace(rng, 120)
		cut := int(rawCut) % (len(events) + 1)

		warm := NewAnalyzer(cfg)
		for i := range events[:cut] {
			if err := warm.Event(&events[i]); err != nil {
				return false
			}
		}
		cp := warm.Snapshot()

		chained := cp.Restore()
		for i := cut; i < len(events); i++ {
			if err := chained.Event(&events[i]); err != nil {
				return false
			}
		}
		want, err := chained.Finish()
		if err != nil {
			return false
		}

		spliced := cp.Restore()
		r := NewDeltaResolver(uint64(cut), len(events)-cut)
		if r.Events(events[cut:]) != nil {
			return false
		}
		if spliced.ApplyDelta(r.Delta()) != nil {
			return false
		}
		got, err := spliced.Finish()
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaIdentityQuick: an empty delta is a no-op splice — applying it
// anywhere in a run changes nothing.
func TestDeltaIdentityQuick(t *testing.T) {
	cfgs := deltaConfigs()
	f := func(seed int64, rawCut uint16, rawCfg uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := cfgs[int(rawCfg)%len(cfgs)]
		events := richTrace(rng, 100)
		cut := int(rawCut) % (len(events) + 1)

		plain := NewAnalyzer(cfg)
		withZero := NewAnalyzer(cfg)
		for i := range events {
			if i == cut {
				zero := NewDeltaResolver(uint64(i), 0).Delta()
				if withZero.ApplyDelta(zero) != nil {
					return false
				}
			}
			if plain.Event(&events[i]) != nil || withZero.Event(&events[i]) != nil {
				return false
			}
		}
		a, err1 := plain.Finish()
		b, err2 := withZero.Finish()
		return err1 == nil && err2 == nil && reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaBudgetFailFastParity: under a fail-fast budget the splice fails
// with exactly the error — same event index, same message — the sequential
// analyzer reports.
func TestDeltaBudgetFailFastParity(t *testing.T) {
	cfg := Dataflow(SyscallConservative)
	cfg.MemBudget = 1 << 10
	cfg.BudgetPolicy = budget.FailFast

	rng := rand.New(rand.NewSource(99))
	var events []trace.Event
	for i := 0; i < 4096; i++ {
		events = append(events, evStore(isa.T0, 0x10000000+4*uint32(rng.Intn(4096)), trace.SegData))
	}

	mono := NewAnalyzer(cfg)
	var wantErr error
	for i := range events {
		if wantErr = mono.Event(&events[i]); wantErr != nil {
			break
		}
	}
	if wantErr == nil {
		t.Fatal("monolithic run stayed under a 1KB budget")
	}

	spec := NewAnalyzer(cfg)
	gotErr := spec.ApplyDelta(buildDelta(t, events, 0, len(events)))
	if gotErr == nil {
		t.Fatal("splice stayed under a 1KB budget")
	}
	if gotErr.Error() != wantErr.Error() {
		t.Errorf("splice error %q, want %q", gotErr, wantErr)
	}
}

// TestDeltaValidationParity: a shard resolution rejects malformed events
// with the same absolute-index error the analyzer reports, and keeps the
// prefix before the failure so the driver can order errors like a chained
// run.
func TestDeltaValidationParity(t *testing.T) {
	events := richTrace(rand.New(rand.NewSource(7)), 40)
	bad := trace.Event{Ins: isa.Instruction{Op: isa.ADD}, MemSize: 4, Seg: trace.SegData}
	events = append(events[:25], append([]trace.Event{bad}, events[25:]...)...)

	cfg := Dataflow(SyscallConservative)
	const start = 1000
	mono := NewAnalyzer(cfg)
	mono.instructions = start // position the oracle at the same offset
	var wantErr error
	for i := range events {
		if wantErr = mono.Event(&events[i]); wantErr != nil {
			break
		}
	}
	if wantErr == nil {
		t.Fatal("monolithic analyzer accepted the malformed event")
	}

	r := NewDeltaResolver(start, len(events))
	gotErr := r.Events(events)
	if gotErr == nil {
		t.Fatal("shard resolution accepted the malformed event")
	}
	if gotErr.Error() != wantErr.Error() {
		t.Errorf("shard resolution error %q, want %q", gotErr, wantErr)
	}
	if !strings.Contains(gotErr.Error(), "1025") {
		t.Errorf("shard resolution error %q does not carry the absolute event index", gotErr)
	}
	if got := r.Delta().Events; got != 25 {
		t.Errorf("prefix delta has %d events, want 25", got)
	}
}

// TestEventsAfterSplice: events fed after a splice are numbered from the
// splice's end, so a malformed one reports its absolute index, and the
// records before it count as they would in a monolithic run.
func TestEventsAfterSplice(t *testing.T) {
	events := richTrace(rand.New(rand.NewSource(11)), 60)
	bad := trace.Event{Ins: isa.Instruction{Op: isa.ADD}, MemSize: 4, Seg: trace.SegData}
	cfg := Dataflow(SyscallConservative)
	mono := NewAnalyzer(cfg)
	wantErr := mono.Events(append(slices.Clone(events), bad))
	spliced := NewAnalyzer(cfg)
	if err := spliced.ApplyDelta(buildDelta(t, events, 0, 40)); err != nil {
		t.Fatal(err)
	}
	gotErr := spliced.Events(append(slices.Clone(events[40:]), bad))
	if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("after a splice: %v, monolithic: %v", gotErr, wantErr)
	}
	if got, want := spliced.MustFinish(), mono.MustFinish(); !reflect.DeepEqual(got, want) {
		t.Fatalf("result after a splice %v, monolithic %v", got, want)
	}
}

// TestDeltaGuards: the splice refuses deltas that cannot line up — wrong
// position, finished analyzer — and the replay both the splice and the
// Scheduler run refuses a record kind that does not exist.
func TestDeltaGuards(t *testing.T) {
	d := NewDeltaResolver(5, 0).Delta()
	a := NewAnalyzer(Config{})
	if err := a.ApplyDelta(d); err == nil || !strings.Contains(err.Error(), "starts at event 5") {
		t.Errorf("offset guard: %v", err)
	}
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := a.ApplyDelta(NewDeltaResolver(0, 0).Delta()); err == nil {
		t.Error("finished analyzer accepted a delta")
	}
	const kind7 = "unknown record kind 7 at event 0" // kinds stop at 4
	if err := NewAnalyzer(Config{}).ApplyDelta(&ShardDelta{Code: []uint32{7}, Events: 1}); err == nil || !strings.Contains(err.Error(), kind7) {
		t.Errorf("splice of a corrupt record: %v", err)
	}
	if err := NewScheduler(Config{}).Apply(&DepSegment{Code: []uint32{7}, Events: 1}); err == nil || !strings.Contains(err.Error(), kind7) {
		t.Errorf("schedule of a corrupt record: %v", err)
	}
}

// TestApplyDeltaRecordCount: a record stream shorter than the delta's
// declared event count must not splice into a silently shorter run —
// ApplyDelta refuses it, as Scheduler.Finish refuses mismatched totals, and
// Validate catches it before any replay.
func TestApplyDeltaRecordCount(t *testing.T) {
	events := richTrace(rand.New(rand.NewSource(5)), 50)
	d := buildDelta(t, events, 0, 50)
	// The first 49 events encode to a prefix of the 50-event stream, so
	// cutting at its length drops exactly the last record.
	d.Code = d.Code[:len(buildDelta(t, events, 0, 49).Code)]
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "49 records") {
		t.Errorf("Validate = %v, want a record-count error", err)
	}
	a := NewAnalyzer(Dataflow(SyscallConservative))
	if err := a.ApplyDelta(d); err == nil || !strings.Contains(err.Error(), "49 records but declares 50 events") {
		t.Errorf("ApplyDelta = %v, want a record-count error", err)
	}
}

// TestDeltaValidate: Validate accepts every resolved delta and refuses each
// malformation that would make a splice panic or silently misreport.
func TestDeltaValidate(t *testing.T) {
	// The first record is a place record with two sources to corrupt.
	events := append([]trace.Event{evAdd(isa.T0, isa.T1, isa.T2)}, richTrace(rand.New(rand.NewSource(13)), 200)...)
	good := buildDelta(t, events, 0, len(events))
	if err := good.Validate(); err != nil {
		t.Fatalf("resolved delta refused: %v", err)
	}
	const place = 0
	for _, tc := range []struct {
		name, want string
		mutate     func(d *ShardDelta)
	}{
		{"truncated", "truncated record", func(d *ShardDelta) { d.Code = d.Code[:place+1] }},
		{"slot", "references slot", func(d *ShardDelta) { d.Code[place+1] = uint32(len(d.Locs)) }},
		{"kind", "unknown record kind", func(d *ShardDelta) { d.Code[place] |= 7 }},
		{"op", "names operation", func(d *ShardDelta) { d.Code[place] |= 0xff << 8 }},
		{"eviction", "carries an eviction", func(d *ShardDelta) { d.Code[place] |= deltaFlagEvict }},
		{"count", "declares", func(d *ShardDelta) { d.Events++ }},
		{"register", "names register", func(d *ShardDelta) {
			for i, loc := range d.Locs {
				if loc&deltaMemLoc == 0 {
					d.Locs[i] = uint32(isa.NumRegs)
					return
				}
			}
		}},
	} {
		d := &ShardDelta{
			Events: good.Events, Locs: append([]uint32(nil), good.Locs...),
			Code: append([]uint32(nil), good.Code...),
		}
		tc.mutate(d)
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestStoresWriteNoRegister pins the invariant the record encoding rests
// on: a place record's destinations share one location class, flagged once
// in word0, because no store writes a register.
func TestStoresWriteNoRegister(t *testing.T) {
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if !op.Info().IsStore {
			continue
		}
		ins := isa.Instruction{Op: op, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2}
		if dsts := regDests(&ins, nil); len(dsts) != 0 {
			t.Errorf("store %v writes registers %v", op, dsts)
		}
	}
}
