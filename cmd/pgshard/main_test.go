package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"paragraph/internal/core"
	"paragraph/internal/isa"
	"paragraph/internal/shard"
	"paragraph/internal/trace"
)

// synthTrace builds a deterministic mixed-instruction trace with small
// chunks, so a few thousand events split cleanly into multiple shards.
func synthTrace(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOpts(&buf, trace.WriterOptions{ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pc := uint32(0x400000)
	for i := 0; i < n; i++ {
		var e trace.Event
		switch rng.Intn(4) {
		case 0:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.ADDI, Rt: isa.T0, Rs: isa.T1, Imm: int32(rng.Intn(32))}}
		case 1:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.LW, Rt: isa.T2, Rs: isa.GP},
				MemAddr: 0x10000000 + uint32(rng.Intn(1<<10))*4, MemSize: 4, Seg: trace.SegData}
		case 2:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SW, Rt: isa.T0, Rs: isa.GP},
				MemAddr: 0x10000000 + uint32(rng.Intn(1<<10))*4, MemSize: 4, Seg: trace.SegData}
		default:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.BNE, Rs: isa.T0, Rt: isa.Zero, Imm: -8},
				Taken: rng.Intn(2) == 0}
		}
		if err := w.Event(&e); err != nil {
			t.Fatal(err)
		}
		pc += 4
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeShardResults runs the full split/analyze pipeline over a synthetic
// trace and writes one valid result file per shard into dir, exactly as
// `pgshard analyze` invocations would.
func writeShardResults(t *testing.T, dir string, shards int) ([]string, []byte, core.Config) {
	t.Helper()
	data := synthTrace(t, 4000, 3)
	cfg := core.Config{RenameRegisters: true, RenameStack: true, RenameData: true}
	plan, err := shard.Split(data, shards, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var prev *core.Checkpoint
	var files []string
	for i, sh := range plan.Shards {
		var a *core.Analyzer
		if prev == nil {
			a = core.NewAnalyzer(cfg)
		} else {
			a = prev.Restore()
		}
		res, cp, err := shard.RunShardBytes(ctx, a, data, cfg, sh, false, len(plan.Shards), i < len(plan.Shards)-1)
		if err != nil {
			t.Fatalf("shard %d: run: %v", i, err)
		}
		f := filepath.Join(dir, fmt.Sprintf("shard-%d.pgsr", i))
		if err := shard.SaveResult(f, res, cp); err != nil {
			t.Fatalf("shard %d: save: %v", i, err)
		}
		prev = cp
		files = append(files, f)
	}
	return files, data, cfg
}

func TestLoadPartsMergeMatchesMonolithic(t *testing.T) {
	dir := t.TempDir()
	files, data, cfg := writeShardResults(t, dir, 3)
	parts, err := loadParts(files)
	if err != nil {
		t.Fatalf("loadParts: %v", err)
	}
	merged, _, err := shard.Merge(parts)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	want, _, err := shard.Analyze(context.Background(), data, cfg, 1, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, want) {
		t.Errorf("merged result differs from monolithic run:\n got %+v\nwant %+v", merged, want)
	}
}

// writeShardDeltas runs the speculative pipeline over the same synthetic
// trace: every shard compiled with no predecessor, one delta file each,
// exactly as concurrent `pgshard analyze -speculate` invocations would.
func writeShardDeltas(t *testing.T, dir string, shards int) ([]string, []byte, core.Config) {
	t.Helper()
	data := synthTrace(t, 4000, 3)
	cfg := core.Config{RenameRegisters: true, RenameStack: true, RenameData: true}
	plan, err := shard.Split(data, shards, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var files []string
	for i, sh := range plan.Shards {
		d, err := shard.BuildDeltaBytes(ctx, data, cfg, sh, false, len(plan.Shards))
		if err != nil {
			t.Fatalf("shard %d: build: %v", i, err)
		}
		f := filepath.Join(dir, fmt.Sprintf("shard-%d.pgsd", i))
		if err := shard.SaveDelta(f, d); err != nil {
			t.Fatalf("shard %d: save: %v", i, err)
		}
		files = append(files, f)
	}
	return files, data, cfg
}

// TestLoadDeltasSpliceMatchesChainedMerge: the speculative file workflow
// ends in the same merged Result — and the same per-shard Results, so the
// merge report is byte-identical — as the chained workflow over the same
// trace and config.
func TestLoadDeltasSpliceMatchesChainedMerge(t *testing.T) {
	dir := t.TempDir()
	resultFiles, data, cfg := writeShardResults(t, dir, 3)
	deltaFiles, _, _ := writeShardDeltas(t, dir, 3)

	chainedParts, err := loadParts(resultFiles)
	if err != nil {
		t.Fatalf("loadParts: %v", err)
	}
	chainedRes, chainedRS, err := shard.Merge(chainedParts)
	if err != nil {
		t.Fatal(err)
	}

	deltas, ok, err := loadDeltas(deltaFiles)
	if err != nil {
		t.Fatalf("loadDeltas: %v", err)
	}
	if !ok {
		t.Fatal("loadDeltas did not recognize delta files")
	}
	specParts, specRes, specRS, err := shard.Splice(deltas)
	if err != nil {
		t.Fatalf("Splice: %v", err)
	}
	if !reflect.DeepEqual(specRes, chainedRes) {
		t.Error("spliced merge differs from chained merge")
	}
	if specRS != chainedRS {
		t.Errorf("ReadStats: spliced %+v, chained %+v", specRS, chainedRS)
	}
	var chainedOut, specOut bytes.Buffer
	if err := shard.RenderMerge(&chainedOut, chainedRes, chainedRS, chainedParts); err != nil {
		t.Fatal(err)
	}
	if err := shard.RenderMerge(&specOut, specRes, specRS, specParts); err != nil {
		t.Fatal(err)
	}
	if specOut.String() != chainedOut.String() {
		t.Errorf("merge reports differ:\n--- chained ---\n%s--- speculative ---\n%s", chainedOut.String(), specOut.String())
	}

	want, _, err := shard.Analyze(context.Background(), data, cfg, 1, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specRes, want) {
		t.Error("spliced merge differs from monolithic run")
	}
}

// TestLoadDeltasRejectsMixedFiles: handing merge a delta chain with a
// result file mixed in fails with an error naming the odd file.
func TestLoadDeltasRejectsMixedFiles(t *testing.T) {
	dir := t.TempDir()
	resultFiles, _, _ := writeShardResults(t, dir, 2)
	deltaFiles, _, _ := writeShardDeltas(t, dir, 2)

	mixed := []string{deltaFiles[0], resultFiles[1]}
	if _, _, err := loadDeltas(mixed); err == nil {
		t.Fatal("loadDeltas accepted a delta chain with a result file mixed in")
	} else if !strings.Contains(err.Error(), resultFiles[1]) {
		t.Errorf("error %q does not name the odd file %s", err, resultFiles[1])
	}

	// Result file first: not a delta chain; the sniff defers to loadParts,
	// which then rejects the delta file by magic.
	if _, ok, err := loadDeltas([]string{resultFiles[0], deltaFiles[1]}); ok || err != nil {
		t.Fatalf("result-first sniff: ok=%v err=%v, want a clean decline", ok, err)
	}
	if _, err := loadParts([]string{resultFiles[0], deltaFiles[1]}); err == nil {
		t.Fatal("loadParts accepted a result chain with a delta file mixed in")
	}
}

// TestLoadDeltasRejectsRetiredFormat: a pgshard-delta-v1 file — whose
// records may encode policy decisions as skips — is refused by merge with
// an error naming the file and the magic, not deferred to the result
// loader or spliced.
func TestLoadDeltasRejectsRetiredFormat(t *testing.T) {
	dir := t.TempDir()
	deltaFiles, _, _ := writeShardDeltas(t, dir, 2)
	data, err := os.ReadFile(deltaFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "pgshard-delta-v1\n")
	if err := os.WriteFile(deltaFiles[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := loadDeltas(deltaFiles)
	if ok || err == nil {
		t.Fatalf("loadDeltas accepted a v1 delta: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(err.Error(), "pgshard-delta-v1") || !strings.Contains(err.Error(), deltaFiles[0]) {
		t.Errorf("error %q does not name the file and the retired magic", err)
	}
}

func TestLoadPartsMissingFile(t *testing.T) {
	dir := t.TempDir()
	files, _, _ := writeShardResults(t, dir, 2)
	bad := filepath.Join(dir, "shard-9.pgsr")
	files[1] = bad
	parts, err := loadParts(files)
	if err == nil {
		t.Fatal("loadParts accepted a missing shard file")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("error %q does not name the missing file %s", err, bad)
	}
	if parts != nil {
		t.Error("loadParts returned partial results alongside an error")
	}
}

func TestLoadPartsTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	files, _, _ := writeShardResults(t, dir, 2)
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	parts, err := loadParts(files)
	if err == nil {
		t.Fatal("loadParts accepted a truncated shard file")
	}
	if !strings.Contains(err.Error(), files[0]) {
		t.Errorf("error %q does not name the truncated file %s", err, files[0])
	}
	if parts != nil {
		t.Error("loadParts returned partial results alongside an error")
	}
}

func TestLoadPartsVersionSkew(t *testing.T) {
	dir := t.TempDir()
	files, _, _ := writeShardResults(t, dir, 2)
	skewed := filepath.Join(dir, "old-format.pgsr")
	if err := os.WriteFile(skewed, []byte("pgshard-result-v0\nnot-our-gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	files[0] = skewed
	parts, err := loadParts(files)
	if err == nil {
		t.Fatal("loadParts accepted a version-skewed shard file")
	}
	if !strings.Contains(err.Error(), skewed) {
		t.Errorf("error %q does not name the skewed file %s", err, skewed)
	}
	if !strings.Contains(err.Error(), "magic") {
		t.Errorf("error %q does not explain the format mismatch", err)
	}
	if parts != nil {
		t.Error("loadParts returned partial results alongside an error")
	}
}
