package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/faultinject"
	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// synthEvents builds a deterministic pseudo-random event stream that
// exercises registers, memory in both segments, branches and syscalls —
// enough structure for the analyzer's placement state to evolve
// non-trivially across shard boundaries.
func synthEvents(n int, seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]trace.Event, 0, n)
	pc := uint32(0x400000)
	regs := []isa.Reg{isa.T0, isa.T1, isa.T2, isa.S0, isa.S1, isa.A0, isa.V0}
	for i := 0; i < n; i++ {
		r := func() isa.Reg { return regs[rng.Intn(len(regs))] }
		var e trace.Event
		switch rng.Intn(10) {
		case 0, 1, 2:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.ADDI, Rt: r(), Rs: r(), Imm: int32(rng.Intn(64) - 32)}}
		case 3, 4:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.ADDU, Rd: r(), Rs: r(), Rt: r()}}
		case 5:
			addr := 0x10000000 + uint32(rng.Intn(1<<12))*4
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.LW, Rt: r(), Rs: isa.GP},
				MemAddr: addr, MemSize: 4, Seg: trace.SegData}
		case 6:
			addr := 0x10000000 + uint32(rng.Intn(1<<12))*4
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SW, Rt: r(), Rs: isa.GP},
				MemAddr: addr, MemSize: 4, Seg: trace.SegData}
		case 7:
			addr := 0x7fff0000 + uint32(rng.Intn(1<<8))*4
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SW, Rt: r(), Rs: isa.SP},
				MemAddr: addr, MemSize: 4, Seg: trace.SegStack}
		case 8:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.BNE, Rs: r(), Rt: isa.Zero, Imm: -16},
				Taken: rng.Intn(2) == 0}
		default:
			if rng.Intn(50) == 0 {
				e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SYSCALL}}
			} else {
				e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.LUI, Rt: r(), Imm: int32(rng.Intn(1 << 10))}}
			}
		}
		events = append(events, e)
		pc += 4
	}
	return events
}

// synthTrace writes the synthetic stream as a v2 trace with small chunks,
// so even short tests produce enough chunk boundaries to shard on.
func synthTrace(t testing.TB, n int, seed int64, chunkBytes int) []byte {
	t.Helper()
	return encodeEvents(t, synthEvents(n, seed), chunkBytes)
}

// encodeEvents writes events as a v2 trace with the given chunk size.
func encodeEvents(t testing.TB, events []trace.Event, chunkBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOpts(&buf, trace.WriterOptions{ChunkBytes: chunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if err := w.Event(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fullConfig turns on every mergeable collection path.
func fullConfig() core.Config {
	cfg := core.Dataflow(core.SyscallConservative)
	cfg.Profile = true
	cfg.ProfileBuckets = 512
	cfg.StorageProfile = true
	cfg.Lifetimes = true
	cfg.Sharing = true
	return cfg
}

func monolithic(t testing.TB, data []byte, cfg core.Config, degraded bool) (*core.Result, trace.ReadStats) {
	t.Helper()
	var rs trace.ReadStats
	res, err := core.AnalyzeTraceOpts(context.Background(), bytes.NewReader(data), cfg,
		core.TwoPassOptions{Degraded: degraded, Stats: &rs})
	if err != nil {
		t.Fatalf("monolithic analysis: %v", err)
	}
	return res, rs
}

func TestSplitInvariants(t *testing.T) {
	data := synthTrace(t, 20000, 1, 512)
	for _, n := range []int{1, 2, 3, 7, 16, 1000} {
		plan, err := Split(data, n, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(plan.Shards) < 1 || len(plan.Shards) > n {
			t.Fatalf("n=%d: got %d shards", n, len(plan.Shards))
		}
		var events uint64
		next := int64(trace.HeaderBytes)
		for i, sh := range plan.Shards {
			if sh.Index != i {
				t.Fatalf("n=%d: shard %d has index %d", n, i, sh.Index)
			}
			if sh.Start != next {
				t.Fatalf("n=%d: shard %d starts at %d, want %d (gap or overlap)", n, i, sh.Start, next)
			}
			if sh.End <= sh.Start && sh.Events > 0 {
				t.Fatalf("n=%d: shard %d has range [%d,%d) but %d events", n, i, sh.Start, sh.End, sh.Events)
			}
			if sh.StartEvent != events {
				t.Fatalf("n=%d: shard %d StartEvent=%d, want %d", n, i, sh.StartEvent, events)
			}
			if (i > 0) != sh.HavePrevSeq {
				t.Fatalf("n=%d: shard %d HavePrevSeq=%v", n, i, sh.HavePrevSeq)
			}
			events += sh.Events
			next = sh.End
		}
		if next != int64(len(data)) {
			t.Fatalf("n=%d: shards end at %d, trace has %d bytes", n, next, len(data))
		}
		if events != plan.TotalEvents {
			t.Fatalf("n=%d: shard events sum to %d, plan says %d", n, events, plan.TotalEvents)
		}
		if plan.TotalEvents != 20000 {
			t.Fatalf("n=%d: plan delivers %d events, wrote 20000", n, plan.TotalEvents)
		}
	}
}

func TestSplitRejectsBadInput(t *testing.T) {
	if _, err := Split(synthTrace(t, 10, 1, 512), 0, Options{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Split([]byte("PGTRACE1"), 2, Options{}); err == nil {
		t.Error("v1 trace accepted")
	}
	if _, err := Split([]byte("garbage"), 2, Options{}); err == nil {
		t.Error("garbage accepted")
	}
}

func TestShardedEqualsMonolithic(t *testing.T) {
	data := synthTrace(t, 30000, 2, 1024)
	cfg := fullConfig()
	wantRes, wantStats := monolithic(t, data, cfg, false)
	for _, n := range []int{1, 2, 5, 13} {
		res, rs, err := Analyze(context.Background(), data, cfg, n, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("n=%d: sharded Result differs from monolithic", n)
		}
		if rs != wantStats {
			t.Errorf("n=%d: ReadStats = %+v, want %+v", n, rs, wantStats)
		}
	}
}

func TestShardedEqualsMonolithicGoverned(t *testing.T) {
	data := synthTrace(t, 30000, 3, 1024)
	cfg := fullConfig()
	cfg.WindowSize = 2048
	cfg.MemBudget = 64 << 10
	cfg.BudgetPolicy = budget.Degrade
	wantRes, wantStats := monolithic(t, data, cfg, false)
	if wantRes.Governor == nil || !wantRes.Governor.Governed() {
		t.Fatal("governed fixture never degraded; tighten the budget")
	}
	for _, n := range []int{1, 3, 7} {
		res, rs, err := Analyze(context.Background(), data, cfg, n, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("n=%d: governed sharded Result differs from monolithic", n)
		}
		if rs != wantStats {
			t.Errorf("n=%d: ReadStats differ", n)
		}
	}
}

// damage injects corrupt, duplicated and truncated chunks so degraded
// shard readers must skip, drop and resync exactly as a monolithic
// degraded reader does.
func damage(t testing.TB, data []byte) []byte {
	t.Helper()
	var err error
	for _, i := range []int{2, 9} {
		data, err = faultinject.CorruptChunk(data, i, int64(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err = faultinject.DuplicateChunk(data, 5)
	if err != nil {
		t.Fatal(err)
	}
	return faultinject.Truncate(data, 7)
}

func TestShardedEqualsMonolithicDegraded(t *testing.T) {
	data := damage(t, synthTrace(t, 30000, 4, 1024))
	cfg := fullConfig()
	wantRes, wantStats := monolithic(t, data, cfg, true)
	if wantStats.SkippedChunks == 0 || wantStats.DuplicateChunks == 0 {
		t.Fatalf("damage fixture too mild: %+v", wantStats)
	}
	for _, n := range []int{1, 2, 7} {
		res, rs, err := Analyze(context.Background(), data, cfg, n, Options{Degraded: true})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("n=%d: degraded sharded Result differs from monolithic", n)
		}
		if rs != wantStats {
			t.Errorf("n=%d: ReadStats = %+v, want %+v", n, rs, wantStats)
		}
	}
}

// TestDistributedChainThroughFiles simulates the pgshard workflow: each
// shard runs in isolation, seeded from the previous shard's result file,
// and the merged Result — reassembled purely from files — must equal the
// monolithic run. This is the cross-process seam the gob formats exist
// for, including the degraded read's ReadStats surviving the round trip.
func TestDistributedChainThroughFiles(t *testing.T) {
	data := damage(t, synthTrace(t, 20000, 5, 1024))
	cfg := fullConfig()
	wantRes, wantStats := monolithic(t, data, cfg, true)

	plan, err := Split(data, 3, Options{Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	if err := SavePlan(planPath, plan); err != nil {
		t.Fatal(err)
	}
	plan, err = LoadPlan(planPath)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	paths := make([]string, len(plan.Shards))
	for i, sh := range plan.Shards {
		// Each iteration stands in for a separate process: state arrives
		// only via the previous shard's result file.
		var a *core.Analyzer
		if i == 0 {
			a = core.NewAnalyzer(cfg)
		} else {
			prev, cp, err := LoadResult(paths[i-1])
			if err != nil {
				t.Fatal(err)
			}
			if cp == nil {
				t.Fatalf("shard %d result carries no checkpoint", i-1)
			}
			if prev.Index != i-1 {
				t.Fatalf("loaded shard %d, want %d", prev.Index, i-1)
			}
			a = cp.Restore()
		}
		buf, err := DecodeShard(ctx, data, sh, plan.Degraded)
		if err != nil {
			t.Fatal(err)
		}
		res, cp, err := RunShard(ctx, a, buf, cfg, sh, len(plan.Shards), i < len(plan.Shards)-1)
		if err != nil {
			t.Fatal(err)
		}
		// The shard's ReadStats must survive the file round trip exactly;
		// this is the gob seam that silently dropped stats before
		// EventBuffer and shard results had explicit encoders.
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.pgsr", i))
		if err := SaveResult(paths[i], res, cp); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := LoadResult(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if loaded.ReadStats != res.ReadStats {
			t.Fatalf("shard %d: ReadStats drifted through gob: %+v != %+v", i, loaded.ReadStats, res.ReadStats)
		}
		if !reflect.DeepEqual(loaded, res) {
			t.Fatalf("shard %d: result drifted through gob round trip", i)
		}
	}

	parts := make([]*Result, len(paths))
	for i, p := range paths {
		parts[i], _, err = LoadResult(p)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, rs, err := Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantRes) {
		t.Error("merged file-chain Result differs from monolithic")
	}
	if rs != wantStats {
		t.Errorf("merged ReadStats = %+v, want %+v", rs, wantStats)
	}
}

func TestMergeValidation(t *testing.T) {
	data := synthTrace(t, 5000, 6, 512)
	cfg := fullConfig()
	plan, err := Split(data, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a := core.NewAnalyzer(cfg)
	parts := make([]*Result, len(plan.Shards))
	for i, sh := range plan.Shards {
		buf, err := DecodeShard(ctx, data, sh, false)
		if err != nil {
			t.Fatal(err)
		}
		parts[i], _, err = RunShard(ctx, a, buf, cfg, sh, len(plan.Shards), false)
		if err != nil {
			t.Fatal(err)
		}
	}

	if _, _, err := Merge(nil); err == nil {
		t.Error("empty merge accepted")
	}
	if _, _, err := Merge(parts[:2]); err == nil {
		t.Error("incomplete shard set accepted")
	}
	if _, _, err := Merge([]*Result{parts[0], parts[1], parts[1]}); err == nil {
		t.Error("duplicate shard accepted")
	}
	bad := *parts[1]
	bad.Config.WindowSize = 999
	if _, _, err := Merge([]*Result{parts[0], &bad, parts[2]}); err == nil {
		t.Error("config mismatch accepted")
	}
	noFinal := *parts[2]
	noFinal.Final = nil
	if _, _, err := Merge([]*Result{parts[0], parts[1], &noFinal}); err == nil {
		t.Error("missing final Result accepted")
	}
	// Shuffled order must merge fine — Merge sorts.
	if _, _, err := Merge([]*Result{parts[2], parts[0], parts[1]}); err != nil {
		t.Errorf("shuffled merge failed: %v", err)
	}
}

func TestRenderMergeSmoke(t *testing.T) {
	data := synthTrace(t, 5000, 7, 512)
	cfg := fullConfig()
	plan, err := Split(data, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a := core.NewAnalyzer(cfg)
	parts := make([]*Result, len(plan.Shards))
	for i, sh := range plan.Shards {
		buf, err := DecodeShard(ctx, data, sh, false)
		if err != nil {
			t.Fatal(err)
		}
		parts[i], _, err = RunShard(ctx, a, buf, cfg, sh, len(plan.Shards), false)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, rs, err := Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderMerge(&sb, res, rs, parts); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Shard", "critical path", "available"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeCancellation(t *testing.T) {
	data := synthTrace(t, 30000, 9, 1024)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range []bool{false, true} {
		if _, _, err := Analyze(ctx, data, fullConfig(), 4, Options{Speculate: spec}); !errors.Is(err, context.Canceled) {
			t.Errorf("speculate=%v: canceled analysis returned %v, want context.Canceled", spec, err)
		}
	}
}
