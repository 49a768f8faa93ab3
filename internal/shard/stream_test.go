package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"paragraph/internal/core"
	"paragraph/internal/trace"
)

// entryAnalyzer is the analyzer a shard attempt starts from: a fresh one
// for shard 0, else a restore of the previous shard's checkpoint.
func entryAnalyzer(cfg core.Config, cp *core.Checkpoint) *core.Analyzer {
	if cp == nil {
		return core.NewAnalyzer(cfg)
	}
	return cp.Restore()
}

// TestStreamingAttemptsMatchBuffered: the streaming entry points write
// byte-identical artifacts to decoding the shard into an EventBuffer first
// — a chained attempt's result file (Result plus outgoing checkpoint) and
// a speculative attempt's delta file — on a clean trace and on a damaged
// one read degraded.
func TestStreamingAttemptsMatchBuffered(t *testing.T) {
	clean := synthTrace(t, 12000, 21, 512)
	for name, c := range map[string]struct {
		data     []byte
		degraded bool
	}{
		"clean":   {clean, false},
		"damaged": {damage(t, clean), true},
	} {
		plan, err := Split(c.data, 3, Options{Degraded: c.degraded})
		if err != nil {
			t.Fatal(err)
		}
		cfg := fullConfig()
		ctx := context.Background()
		ns := len(plan.Shards)
		var entry *core.Checkpoint
		for i, sh := range plan.Shards {
			want := i < ns-1
			buf, err := DecodeShard(ctx, c.data, sh, c.degraded)
			if err != nil {
				t.Fatal(err)
			}
			bres, bcp, err := RunShard(ctx, entryAnalyzer(cfg, entry), buf, cfg, sh, ns, want)
			if err != nil {
				t.Fatal(err)
			}
			sres, scp, err := RunShardBytes(ctx, entryAnalyzer(cfg, entry), c.data, cfg, sh, c.degraded, ns, want)
			if err != nil {
				t.Fatal(err)
			}
			var bfile, sfile bytes.Buffer
			if err := WriteResult(&bfile, bres, bcp); err != nil {
				t.Fatal(err)
			}
			if err := WriteResult(&sfile, sres, scp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bfile.Bytes(), sfile.Bytes()) {
				t.Errorf("%s shard %d: streamed result file differs from the buffered one", name, i)
			}

			bd, err := BuildShardDelta(ctx, buf, cfg, sh)
			if err != nil {
				t.Fatal(err)
			}
			sd, err := BuildDeltaBytes(ctx, c.data, cfg, sh, c.degraded, ns)
			if err != nil {
				t.Fatal(err)
			}
			var bdf, sdf bytes.Buffer
			if err := WriteDelta(&bdf, &Delta{Index: i, Shards: ns, Config: cfg, ReadStats: buf.Stats(), D: bd}); err != nil {
				t.Fatal(err)
			}
			if err := WriteDelta(&sdf, sd); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bdf.Bytes(), sdf.Bytes()) {
				t.Errorf("%s shard %d: streamed delta file differs from the buffered one", name, i)
			}
			entry = scp
		}
	}
}

// TestPlanEventCountGuard: a shard whose bytes deliver more or fewer
// events than its plan claims fails every way of decoding it with the
// plan's count error. A chained attempt finds a short plan only after its
// analyzer has consumed the shard, so a failing attempt must return
// neither a Result nor a checkpoint.
func TestPlanEventCountGuard(t *testing.T) {
	data := synthTrace(t, 6000, 22, 512)
	plan, err := Split(data, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fullConfig()
	ctx := context.Background()
	ns := len(plan.Shards)
	var entry *core.Checkpoint
	for i, good := range plan.Shards {
		for _, skew := range []int64{-1, +1} {
			sh := good
			sh.Events = uint64(int64(sh.Events) + skew)
			check := func(entryPoint string, err error) {
				t.Helper()
				want := fmt.Sprintf("shard %d: decoded ", i)
				guard := fmt.Sprintf(" events, plan says %d (trace modified since Split?)", sh.Events)
				if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.HasSuffix(err.Error(), guard) {
					t.Errorf("shard %d, plan count %+d: %s returned %v, want the plan's count error", i, skew, entryPoint, err)
				}
			}
			buf, err := DecodeShard(ctx, data, sh, false)
			check("DecodeShard", err)
			if buf != nil {
				t.Errorf("shard %d, plan count %+d: DecodeShard returned a buffer with its error", i, skew)
			}
			res, cp, err := RunShardBytes(ctx, entryAnalyzer(cfg, entry), data, cfg, sh, false, ns, true)
			check("RunShardBytes", err)
			if res != nil || cp != nil {
				t.Errorf("shard %d, plan count %+d: failed chained attempt returned a Result or checkpoint", i, skew)
			}
			d, err := BuildDeltaBytes(ctx, data, cfg, sh, false, ns)
			check("BuildDeltaBytes", err)
			if d != nil {
				t.Errorf("shard %d, plan count %+d: failed speculative attempt returned a delta", i, skew)
			}
		}
		if _, entry, err = RunShardBytes(ctx, entryAnalyzer(cfg, entry), data, cfg, good, false, ns, i < ns-1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamingAttemptFirstFailureInTraceOrder: when a shard holds a bad
// event and, later, a corrupt chunk, a streaming attempt reports the bad
// event — the first failure in trace order, as a monolithic streaming run
// does — while decoding the whole shard first reports the corrupt chunk.
func TestStreamingAttemptFirstFailureInTraceOrder(t *testing.T) {
	events := synthEvents(6000, 23)
	plan, err := Split(encodeEvents(t, events, 512), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Give shard 1's first ALU op a memory access, which fails validation.
	// That lengthens one chunk of shard 1 but moves no earlier cut point.
	start := plan.Shards[1].StartEvent
	bad := start
	for events[bad].MemSize > 0 {
		bad++
	}
	events[bad].MemAddr, events[bad].MemSize, events[bad].Seg = 0x10000000, 4, trace.SegData
	data := encodeEvents(t, events, 512)
	if plan, err = Split(data, 3, Options{}); err != nil {
		t.Fatal(err)
	}
	sh := plan.Shards[1]
	if sh.StartEvent != start || sh.Chunks < 3 {
		t.Fatalf("shard 1 starts at event %d with %d chunks; want %d and several", sh.StartEvent, sh.Chunks, start)
	}
	// After planning, corrupt the payload of shard 1's last chunk, which
	// follows the bad event's chunk.
	chunks, err := trace.ScanChunks(data)
	if err != nil {
		t.Fatal(err)
	}
	var last trace.ChunkInfo
	for _, c := range chunks {
		if c.Offset >= sh.Start && c.Offset < sh.End {
			last = c
		}
	}
	const chunkHeader = 20
	data[last.Offset+chunkHeader+int64(last.Payload)/2] ^= 0x40

	cfg := fullConfig()
	ctx := context.Background()
	_, cp, err := RunShardBytes(ctx, core.NewAnalyzer(cfg), data, cfg, plan.Shards[0], false, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	var cce *trace.CorruptChunkError
	var bee *core.BadEventError
	if _, err := DecodeShard(ctx, data, sh, false); !errors.As(err, &cce) {
		t.Errorf("DecodeShard: got %v, want the corrupt chunk", err)
	}
	if _, _, err := RunShardBytes(ctx, cp.Restore(), data, cfg, sh, false, 3, true); !errors.As(err, &bee) || errors.As(err, &cce) {
		t.Errorf("RunShardBytes: got %v, want the bad event", err)
	}
	if _, err := BuildDeltaBytes(ctx, data, cfg, sh, false, 3); !errors.As(err, &bee) || errors.As(err, &cce) {
		t.Errorf("BuildDeltaBytes: got %v, want the bad event", err)
	}
}

// TestAnalyzeMemoryFlat: Analyze streams every shard into its analyzer, so
// what a chained run allocates does not grow with the trace. Recording the
// shards first would cost 28 bytes per event, megabytes more for the
// longer trace; the bound is one batch of recorded events. Each size keeps
// its least-allocating run, so a stray allocation elsewhere in the test
// binary cannot fail the test.
func TestAnalyzeMemoryFlat(t *testing.T) {
	cfg := core.Dataflow(core.SyscallConservative)
	cfg.ProfileBuckets = 64 // both trace lengths fill every profile bucket
	var alloc [2]uint64
	sizes := []int{20_000, 200_000}
	for k, n := range sizes {
		// Fold the data segment onto 256 words, so both lengths touch
		// every location and the analyzer's own state is the same size at
		// both. 8 KB chunks give both lengths four shards and keep the
		// plan's chunk list small next to the bound.
		events := synthEvents(n, 24)
		for i := range events {
			if events[i].Seg == trace.SegData {
				events[i].MemAddr = 0x10000000 + events[i].MemAddr%1024
			}
		}
		data := encodeEvents(t, events, 8<<10)
		if plan, err := Split(data, 4, Options{}); err != nil || len(plan.Shards) != 4 {
			t.Fatalf("%d events: plan %v, err %v; want 4 shards", n, plan, err)
		}
		alloc[k] = math.MaxUint64
		for try := 0; try < 3; try++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, _, err := Analyze(context.Background(), data, cfg, 4, Options{})
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Instructions != uint64(n) {
				t.Fatalf("analyzed %d events, want %d", res.Instructions, n)
			}
			alloc[k] = min(alloc[k], m1.TotalAlloc-m0.TotalAlloc)
		}
	}
	batch := uint64(trace.DefaultBatchEvents) * uint64(unsafe.Sizeof(trace.Event{}))
	if alloc[1] > alloc[0]+batch {
		t.Errorf("Analyze allocated %d bytes at %d events and %d at %d; want them within one batch (%d bytes)",
			alloc[0], sizes[0], alloc[1], sizes[1], batch)
	}
	t.Logf("Analyze allocated %d bytes at %d events, %d at %d", alloc[0], sizes[0], alloc[1], sizes[1])
}
