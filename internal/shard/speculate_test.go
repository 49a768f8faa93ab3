package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/trace"
)

// speculativeConfigs is the matrix the speculative differentials sweep: the
// full-collection config, the zero config (storage dependencies
// everywhere), branchy and governed variants.
func speculativeConfigs() []core.Config {
	full := fullConfig()
	branchy := core.Config{Branches: core.BranchTwoBit, PredictorBits: 6, Lifetimes: true, Sharing: true}
	windowed := core.Dataflow(core.SyscallOptimistic)
	windowed.WindowSize = 256
	governed := fullConfig()
	governed.WindowSize = 4096
	governed.MemBudget = 96 << 10
	governed.BudgetPolicy = budget.Degrade
	return []core.Config{full, {}, branchy, windowed, governed}
}

// TestSpeculativeEqualsMonolithic: speculative N-shard analysis of a clean
// trace is deep-equal to the monolithic run for every config in the matrix,
// including a budget-governed one whose window degrades mid-trace.
func TestSpeculativeEqualsMonolithic(t *testing.T) {
	data := synthTrace(t, 30000, 11, 1024)
	for ci, cfg := range speculativeConfigs() {
		wantRes, wantStats := monolithic(t, data, cfg, false)
		for _, n := range []int{1, 2, 5, 13} {
			res, rs, err := Analyze(context.Background(), data, cfg, n, Options{Speculate: true})
			if err != nil {
				t.Fatalf("config %d n=%d: %v", ci, n, err)
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Errorf("config %d n=%d: speculative Result differs from monolithic", ci, n)
			}
			if rs != wantStats {
				t.Errorf("config %d n=%d: ReadStats = %+v, want %+v", ci, n, rs, wantStats)
			}
		}
	}
}

// TestSpeculativeEqualsMonolithicDegraded: same pin over a damaged trace
// read in degraded mode — skipped, duplicated and truncated chunks land in
// specific shards, and the splice must still be exact.
func TestSpeculativeEqualsMonolithicDegraded(t *testing.T) {
	data := damage(t, synthTrace(t, 30000, 12, 1024))
	cfg := fullConfig()
	wantRes, wantStats := monolithic(t, data, cfg, true)
	if wantStats.SkippedChunks == 0 || wantStats.DuplicateChunks == 0 {
		t.Fatalf("damage fixture too mild: %+v", wantStats)
	}
	for _, n := range []int{1, 3, 8} {
		res, rs, err := Analyze(context.Background(), data, cfg, n, Options{Degraded: true, Speculate: true})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("n=%d: degraded speculative Result differs from monolithic", n)
		}
		if rs != wantStats {
			t.Errorf("n=%d: ReadStats = %+v, want %+v", n, rs, wantStats)
		}
	}
}

// TestSpeculativeEqualsChained: the speculative and chained drivers agree
// on every config of the matrix — same Results, same ReadStats — so
// Speculate is a pure engine switch.
func TestSpeculativeEqualsChained(t *testing.T) {
	data := synthTrace(t, 25000, 13, 1024)
	for i, cfg := range speculativeConfigs() {
		chained, crs, err := Analyze(context.Background(), data, cfg, 6, Options{})
		if err != nil {
			t.Fatal(err)
		}
		spec, srs, err := Analyze(context.Background(), data, cfg, 6, Options{Speculate: true})
		if err != nil {
			t.Fatal(err)
		}
		if crs != srs {
			t.Errorf("config %d: ReadStats: chained %+v, speculative %+v", i, crs, srs)
		}
		if !reflect.DeepEqual(chained, spec) {
			t.Errorf("config %d: speculative Result differs from chained", i)
		}
	}
}

// TestSpeculativeBudgetErrorParity: when a fail-fast budget trips, the
// speculative driver reports the same failure the chained driver reports —
// same shard, same analyzer error (event and cause). Only the delivery
// wrapper differs: the chained attempt surfaces errors through its event
// batches ("event batch at N"), the splice applies records directly, so
// parity is pinned on the prefix and the "core: ..." suffix rather than
// the full string.
func TestSpeculativeBudgetErrorParity(t *testing.T) {
	data := synthTrace(t, 30000, 14, 1024)
	cfg := core.Config{MemBudget: 16 << 10, BudgetPolicy: budget.FailFast}
	_, _, cerr := Analyze(context.Background(), data, cfg, 4, Options{})
	if cerr == nil {
		t.Fatal("chained run stayed under a 16KB budget")
	}
	_, _, serr := Analyze(context.Background(), data, cfg, 4, Options{Speculate: true})
	if serr == nil {
		t.Fatal("speculative run stayed under a 16KB budget")
	}
	coreOf := func(err error) string {
		s := err.Error()
		i := strings.Index(s, "core:")
		if i < 0 {
			t.Fatalf("error %q carries no analyzer error", s)
		}
		return s[i:]
	}
	if coreOf(serr) != coreOf(cerr) {
		t.Errorf("speculative analyzer error %q, want chained's %q", coreOf(serr), coreOf(cerr))
	}
	const at = "shard 0:"
	if !strings.HasPrefix(serr.Error(), at) || !strings.HasPrefix(cerr.Error(), at) {
		t.Errorf("errors disagree on the failing shard:\n  chained:     %v\n  speculative: %v", cerr, serr)
	}
	if !strings.Contains(serr.Error(), "budget") {
		t.Errorf("error %q does not mention the budget", serr)
	}
}

// TestSpeculativeFailedBuildRerunsChained: a shard whose speculative build
// fails is run again chained from the spliced state, so a speculative
// Analyze reports exactly the chained run's error: the bad event when
// nothing trips before it, and a fail-fast budget that trips earlier in the
// same shard when one does.
func TestSpeculativeFailedBuildRerunsChained(t *testing.T) {
	events := synthEvents(6000, 25)
	bad := 5000 // in the last of three shards
	for events[bad].MemSize > 0 {
		bad++
	}
	// An ALU op with a memory access fails validation, so the build fails.
	events[bad].MemAddr, events[bad].MemSize, events[bad].Seg = 0x10000000, 4, trace.SegData
	data := encodeEvents(t, events, 512)
	plan, err := Split(data, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := plan.Shards[len(plan.Shards)-1]
	if last.StartEvent > uint64(bad) {
		t.Fatalf("bad event %d precedes the last shard (starts at %d)", bad, last.StartEvent)
	}
	ctx := context.Background()
	same := func(cfg core.Config) error {
		t.Helper()
		_, _, cerr := Analyze(ctx, data, cfg, 3, Options{})
		_, _, serr := Analyze(ctx, data, cfg, 3, Options{Speculate: true})
		if cerr == nil || serr == nil || cerr.Error() != serr.Error() {
			t.Errorf("chained error %v, speculative %v; want the same error", cerr, serr)
		}
		return cerr
	}
	var bee *core.BadEventError
	if err := same(fullConfig()); !errors.As(err, &bee) || bee.Index != uint64(bad) {
		t.Errorf("error %v, want the bad event at %d", err, bad)
	}

	// Grow a fail-fast budget until it first trips inside the last shard,
	// which is then before the bad event.
	var be *budget.Error
	for limit := int64(4 << 10); limit < 16<<20; limit += limit / 8 {
		cfg := fullConfig()
		cfg.MemBudget, cfg.BudgetPolicy = limit, budget.FailFast
		_, _, err := Analyze(ctx, data, cfg, 3, Options{})
		if errors.As(err, &be) && strings.HasPrefix(err.Error(), fmt.Sprintf("shard %d:", last.Index)) {
			if err := same(cfg); !errors.As(err, &be) {
				t.Errorf("error %v, want the budget trip", err)
			}
			return
		}
	}
	t.Fatal("no budget trips first inside the last shard")
}

// TestSpliceThroughFiles simulates the distributed speculative workflow:
// every shard's delta is built independently (no predecessor, so the
// per-shard processes could run concurrently on different machines),
// persisted, reloaded, and spliced. The merged Result must equal the
// monolithic run and the per-shard Results must equal what the chained
// file workflow persists.
func TestSpliceThroughFiles(t *testing.T) {
	data := damage(t, synthTrace(t, 20000, 15, 1024))
	cfg := fullConfig()
	wantRes, wantStats := monolithic(t, data, cfg, true)

	plan, err := Split(data, 3, Options{Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()

	// Chained per-shard results, for the part-by-part comparison.
	chainedParts := make([]*Result, len(plan.Shards))
	a := core.NewAnalyzer(cfg)
	for i, sh := range plan.Shards {
		buf, err := DecodeShard(ctx, data, sh, plan.Degraded)
		if err != nil {
			t.Fatal(err)
		}
		chainedParts[i], _, err = RunShard(ctx, a, buf, cfg, sh, len(plan.Shards), false)
		if err != nil {
			t.Fatal(err)
		}
	}

	paths := make([]string, len(plan.Shards))
	for i, sh := range plan.Shards {
		buf, err := DecodeShard(ctx, data, sh, plan.Degraded)
		if err != nil {
			t.Fatal(err)
		}
		d, err := BuildShardDelta(ctx, buf, cfg, sh)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, "shard-"+string(rune('0'+i))+".pgsd")
		err = SaveDelta(paths[i], &Delta{
			Index: sh.Index, Shards: len(plan.Shards),
			Config: cfg, ReadStats: buf.Stats(), D: d,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	loaded := make([]*Delta, len(paths))
	for i, p := range paths {
		if loaded[i], err = LoadDelta(p); err != nil {
			t.Fatal(err)
		}
	}
	// Splice sorts by index itself; hand the deltas over shuffled.
	loaded[0], loaded[len(loaded)-1] = loaded[len(loaded)-1], loaded[0]

	parts, res, rs, err := Splice(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, wantRes) {
		t.Error("spliced Result differs from monolithic")
	}
	if rs != wantStats {
		t.Errorf("spliced ReadStats = %+v, want %+v", rs, wantStats)
	}
	for i := range parts {
		if !reflect.DeepEqual(parts[i], chainedParts[i]) {
			t.Errorf("shard %d: spliced per-shard Result differs from chained", i)
		}
	}
}

// TestSpliceValidation: incomplete or inconsistent delta chains are
// refused with errors naming the offending shard.
func TestSpliceValidation(t *testing.T) {
	data := synthTrace(t, 4000, 16, 512)
	cfg := core.Config{}
	plan, err := Split(data, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 2 {
		t.Skipf("trace split into %d shards, want 2", len(plan.Shards))
	}
	ctx := context.Background()
	ds := make([]*Delta, 2)
	for i, sh := range plan.Shards {
		buf, err := DecodeShard(ctx, data, sh, false)
		if err != nil {
			t.Fatal(err)
		}
		d, err := BuildShardDelta(ctx, buf, cfg, sh)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = &Delta{Index: sh.Index, Shards: 2, Config: cfg, ReadStats: buf.Stats(), D: d}
	}

	if _, _, _, err := Splice(nil); err == nil {
		t.Error("empty chain accepted")
	}
	if _, _, _, err := Splice(ds[:1]); err == nil {
		t.Error("incomplete chain accepted")
	}
	if _, _, _, err := Splice([]*Delta{ds[0], ds[0]}); err == nil {
		t.Error("duplicate shard accepted")
	}
	other := *ds[1]
	other.Config = core.Dataflow(core.SyscallOptimistic)
	if _, _, _, err := Splice([]*Delta{ds[0], &other}); err == nil {
		t.Error("mismatched configs accepted")
	}
}

// TestDeltaFileFormat: the delta file magic is validated, result files
// are not mistaken for delta files, retired v1 and v2 deltas are refused by
// name, and a decoded delta whose records do not add up is refused before
// any splice could see it.
func TestDeltaFileFormat(t *testing.T) {
	if _, err := ReadDelta(bytes.NewReader([]byte("pgshard-result-v1\nxx"))); err == nil ||
		!strings.Contains(err.Error(), "not a shard-delta file") {
		t.Errorf("result magic accepted as delta: %v", err)
	}
	if _, err := ReadDelta(bytes.NewReader(nil)); err == nil {
		t.Error("empty file accepted")
	}

	buf := &trace.EventBuffer{}
	if err := buf.Events(synthEvents(300, 5)); err != nil {
		t.Fatal(err)
	}
	d, err := BuildShardDelta(context.Background(), buf, core.Config{}, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteDelta(&b, &Delta{Shards: 1, D: d}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "pgshard-delta-v3\n") {
		t.Fatalf("delta file starts %q, want the v3 magic", b.String()[:17])
	}
	if _, err := ReadDelta(bytes.NewReader(b.Bytes())); err != nil {
		t.Fatalf("v3 round trip: %v", err)
	}
	for _, old := range []string{"pgshard-delta-v1", "pgshard-delta-v2"} {
		retired := append([]byte(old+"\n"), b.Bytes()[len(deltaMagic):]...)
		if _, err := ReadDelta(bytes.NewReader(retired)); !errors.Is(err, ErrDeltaVersion) ||
			!strings.Contains(err.Error(), old) {
			t.Errorf("%s delta: err = %v, want ErrDeltaVersion naming the magic", old, err)
		}
	}

	if _, err := ReadDelta(bytes.NewReader(v2DeltaFile(t, &Delta{Shards: 1, D: d}))); !errors.Is(err, ErrDeltaVersion) {
		t.Errorf("v2 delta file: err = %v, want ErrDeltaVersion", err)
	}
	for n := 0; n < b.Len(); n++ {
		if _, err := ReadDelta(bytes.NewReader(b.Bytes()[:n])); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte delta file accepted", n, b.Len())
		}
	}

	torn := *d
	torn.Code = d.Code[:len(d.Code)-1]
	b.Reset()
	if err := WriteDelta(&b, &Delta{Shards: 1, D: &torn}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDelta(&b); err == nil || !strings.Contains(err.Error(), "shard delta") {
		t.Errorf("torn record stream: err = %v, want a validation error", err)
	}
}
