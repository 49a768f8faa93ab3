package harness

// The sharded-analysis differential battery: analyzing a trace in N shards
// (chunk-boundary split, checkpoint handoff, deterministic merge) must yield
// Results deeply equal to one monolithic pass over the same bytes — for
// every configuration the paper's sweeps use, for every shard count, on
// clean and on damaged traces. `make differential` runs these under the
// race detector, so they also audit the concurrent speculative shard
// builds for data races.

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/faultinject"
	"paragraph/internal/shard"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// shardConfigs is the sweep union plus the two paths the fan-out battery
// does not cover: the full collection set (lifetime/sharing/storage
// distributions, which merge across shards) and a governed run (the budget
// Governor's stats must reassemble exactly from per-shard pieces).
func shardConfigs() []core.Config {
	cfgs := sweepConfigs()
	full := core.Dataflow(core.SyscallConservative)
	full.StorageProfile = true
	full.Lifetimes = true
	full.Sharing = true
	cfgs = append(cfgs, full)
	gov := core.Dataflow(core.SyscallConservative)
	gov.Profile = false
	gov.WindowSize = 2048
	gov.MemBudget = 64 << 10
	gov.BudgetPolicy = budget.Degrade
	cfgs = append(cfgs, gov)
	return cfgs
}

// shardCounts is the battery's shard-count axis: trivial (1), even (2),
// odd-and-uneven (7), and whatever this machine would use by default.
func shardCounts() []int {
	counts := []int{1, 2, 7}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 7 {
		counts = append(counts, p)
	}
	return counts
}

// recordTrace simulates a workload and encodes the recording as a v2 trace
// with small chunks, so even the capped recordings split into many shards.
// The event cap keeps the battery bounded under -race: the equivalence
// claim is per-byte-range, so trace length adds nothing past coverage.
func recordTrace(t *testing.T, name string, maxInstr uint64) []byte {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	s := NewSuite(1)
	buf := &trace.EventBuffer{}
	if _, err := w.Run(s.Scale, s.options(), buf, maxInstr); err != nil {
		t.Fatalf("workload %s: %v", name, err)
	}
	var enc bytes.Buffer
	tw, err := trace.NewWriterOpts(&enc, trace.WriterOptions{ChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Replay(tw); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// shardEach runs shard.Analyze once per config over the same bytes and
// returns the Results in config order plus the ReadStats, which every run
// must agree on.
func shardEach(t *testing.T, data []byte, cfgs []core.Config, n int, opts shard.Options) ([]*core.Result, trace.ReadStats) {
	t.Helper()
	results := make([]*core.Result, len(cfgs))
	var first trace.ReadStats
	for i, cfg := range cfgs {
		res, rs, err := shard.Analyze(context.Background(), data, cfg, n, opts)
		if err != nil {
			t.Fatalf("n=%d config %d: %v", n, i, err)
		}
		if i == 0 {
			first = rs
		} else if rs != first {
			t.Errorf("n=%d config %d: ReadStats %+v, config 0 read %+v", n, i, rs, first)
		}
		results[i] = res
	}
	return results, first
}

// monolithicRef is the reference implementation: one analyzer over the
// whole trace, reading the bytes the same way the shards collectively do.
func monolithicRef(t *testing.T, data []byte, cfg core.Config, degraded bool) (*core.Result, trace.ReadStats) {
	t.Helper()
	var rs trace.ReadStats
	res, err := core.AnalyzeTraceOpts(context.Background(), bytes.NewReader(data), cfg,
		core.TwoPassOptions{Degraded: degraded, Stats: &rs})
	if err != nil {
		t.Fatalf("monolithic analysis: %v", err)
	}
	return res, rs
}

// TestDifferentialSharded is the sharded-equals-monolithic proof on real
// recorded workloads: every config × every shard count, deep-equal Results
// and identical ReadStats.
func TestDifferentialSharded(t *testing.T) {
	cfgs := shardConfigs()
	for _, name := range []string{"xlispx", "matrixx", "spicex"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			data := recordTrace(t, name, 200_000)
			want := make([]*core.Result, len(cfgs))
			var wantStats trace.ReadStats
			for i, cfg := range cfgs {
				want[i], wantStats = monolithicRef(t, data, cfg, false)
			}
			for _, n := range shardCounts() {
				results, rs := shardEach(t, data, cfgs, n, shard.Options{})
				for i := range cfgs {
					if !reflect.DeepEqual(results[i], want[i]) {
						t.Errorf("n=%d config %d: sharded Result differs from monolithic\nsharded:    %v\nmonolithic: %v",
							n, i, results[i], want[i])
					}
				}
				if rs != wantStats {
					t.Errorf("n=%d: ReadStats = %+v, want %+v", n, rs, wantStats)
				}
			}
		})
	}
}

// TestDifferentialShardedDegraded repeats the proof on a damaged trace read
// in degraded mode: corrupt chunks, a duplicated chunk and a torn tail must
// be skipped identically whether one reader or N shard readers see them.
func TestDifferentialShardedDegraded(t *testing.T) {
	cfgs := []core.Config{shardConfigs()[len(shardConfigs())-2]} // the full collection config
	cfgs = append(cfgs, core.Config{Syscalls: core.SyscallConservative, RenameRegisters: true})
	data := recordTrace(t, "naskerx", 150_000)
	var err error
	for _, i := range []int{3, 11} {
		data, err = faultinject.CorruptChunk(data, i, int64(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err = faultinject.DuplicateChunk(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	data = faultinject.Truncate(data, 9)

	want := make([]*core.Result, len(cfgs))
	var wantStats trace.ReadStats
	for i, cfg := range cfgs {
		want[i], wantStats = monolithicRef(t, data, cfg, true)
	}
	if wantStats.SkippedChunks == 0 || wantStats.DuplicateChunks == 0 {
		t.Fatalf("damage fixture too mild: %+v", wantStats)
	}
	for _, n := range shardCounts() {
		results, rs := shardEach(t, data, cfgs, n, shard.Options{Degraded: true})
		for i := range cfgs {
			if !reflect.DeepEqual(results[i], want[i]) {
				t.Errorf("n=%d config %d: degraded sharded Result differs from monolithic", n, i)
			}
		}
		if rs != wantStats {
			t.Errorf("n=%d: ReadStats = %+v, want %+v", n, rs, wantStats)
		}
	}
}

// TestDifferentialSpeculative is the speculative-equals-monolithic proof on
// real recorded workloads: the speculative driver (parallel entry-state-free
// shard compilation + sequential seam splice) must match the monolithic
// reference exactly, for every config × every shard count. Under -race this
// also audits the concurrent builds and the in-order splice.
func TestDifferentialSpeculative(t *testing.T) {
	cfgs := shardConfigs()
	for _, name := range []string{"xlispx", "spicex"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			data := recordTrace(t, name, 200_000)
			want := make([]*core.Result, len(cfgs))
			var wantStats trace.ReadStats
			for i, cfg := range cfgs {
				want[i], wantStats = monolithicRef(t, data, cfg, false)
			}
			for _, n := range shardCounts() {
				results, rs := shardEach(t, data, cfgs, n, shard.Options{Speculate: true})
				for i := range cfgs {
					if !reflect.DeepEqual(results[i], want[i]) {
						t.Errorf("n=%d config %d: speculative Result differs from monolithic", n, i)
					}
				}
				if rs != wantStats {
					t.Errorf("n=%d: ReadStats = %+v, want %+v", n, rs, wantStats)
				}
			}
		})
	}
}

// TestDifferentialSpeculativeDegraded repeats the speculative proof on a
// damaged trace read in degraded mode, and cross-checks the chained driver
// on the same bytes so all three engines (monolithic, chained, speculative)
// are pinned to each other in one place.
func TestDifferentialSpeculativeDegraded(t *testing.T) {
	cfgs := []core.Config{shardConfigs()[len(shardConfigs())-2]} // the full collection config
	cfgs = append(cfgs, core.Config{Branches: core.BranchTwoBit, PredictorBits: 8, RenameRegisters: true})
	data := recordTrace(t, "matrixx", 150_000)
	var err error
	for _, i := range []int{3, 11} {
		data, err = faultinject.CorruptChunk(data, i, int64(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err = faultinject.DuplicateChunk(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	data = faultinject.Truncate(data, 9)

	want := make([]*core.Result, len(cfgs))
	var wantStats trace.ReadStats
	for i, cfg := range cfgs {
		want[i], wantStats = monolithicRef(t, data, cfg, true)
	}
	if wantStats.SkippedChunks == 0 || wantStats.DuplicateChunks == 0 {
		t.Fatalf("damage fixture too mild: %+v", wantStats)
	}
	for _, n := range shardCounts() {
		spec, srs := shardEach(t, data, cfgs, n, shard.Options{Degraded: true, Speculate: true})
		chained, crs := shardEach(t, data, cfgs, n, shard.Options{Degraded: true})
		for i := range cfgs {
			if !reflect.DeepEqual(spec[i], want[i]) {
				t.Errorf("n=%d config %d: degraded speculative Result differs from monolithic", n, i)
			}
			if !reflect.DeepEqual(spec[i], chained[i]) {
				t.Errorf("n=%d config %d: speculative Result differs from chained", n, i)
			}
		}
		if srs != wantStats || crs != wantStats {
			t.Errorf("n=%d: ReadStats speculative %+v chained %+v, want %+v", n, srs, crs, wantStats)
		}
	}
}

// TestGoldenShardMerge pins the pgshard merge report byte-for-byte: the
// per-shard table and combined metrics for a deterministic workload split
// three ways. Regenerate with -update after intended analyzer or renderer
// changes.
func TestGoldenShardMerge(t *testing.T) {
	skipUnderRace(t)
	data := recordTrace(t, "xlispx", 150_000)
	cfg := core.Dataflow(core.SyscallConservative)
	cfg.StorageProfile = true
	cfg.Lifetimes = true
	cfg.Sharing = true

	plan, err := shard.Split(data, 3, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a := core.NewAnalyzer(cfg)
	parts := make([]*shard.Result, len(plan.Shards))
	for i, sh := range plan.Shards {
		buf, err := shard.DecodeShard(ctx, data, sh, false)
		if err != nil {
			t.Fatal(err)
		}
		parts[i], _, err = shard.RunShard(ctx, a, buf, cfg, sh, len(plan.Shards), false)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, rs, err := shard.Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := shard.RenderMerge(&out, res, rs, parts); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "pgshard-merge.txt", out.String())
}
