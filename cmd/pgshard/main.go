// Command pgshard analyzes a giant stored trace in independently-run
// shards: split writes a chunk-boundary-aligned plan, analyze runs one
// shard (seeded from the previous shard's result file) and merge
// reassembles the per-shard results into the exact Result a monolithic run
// would produce. Each step is a separate process invocation, so the shards
// of one trace can run at different times, on different machines sharing a
// filesystem, or under a job scheduler:
//
//	pgshard split -trace huge.pgt -shards 3 -plan plan.json
//	pgshard analyze -trace huge.pgt -plan plan.json -shard 0 -out shard-0.pgsr
//	pgshard analyze -trace huge.pgt -plan plan.json -shard 1 -prev shard-0.pgsr -out shard-1.pgsr
//	pgshard analyze -trace huge.pgt -plan plan.json -shard 2 -prev shard-1.pgsr -out shard-2.pgsr
//	pgshard merge shard-0.pgsr shard-1.pgsr shard-2.pgsr
//
// With -speculate the chain disappears: every shard compiles independently
// (no -prev, so all N processes can run at the same time) into a
// relocatable delta file, and merge splices the deltas — the output is
// byte-identical to the chained workflow's:
//
//	pgshard analyze -trace huge.pgt -plan plan.json -shard 0 -speculate -out shard-0.pgsd &
//	pgshard analyze -trace huge.pgt -plan plan.json -shard 1 -speculate -out shard-1.pgsd &
//	pgshard analyze -trace huge.pgt -plan plan.json -shard 2 -speculate -out shard-2.pgsd &
//	wait
//	pgshard merge shard-0.pgsd shard-1.pgsd shard-2.pgsd
//
// The analysis switches of the analyze subcommand mirror the paragraph CLI
// and must be identical for every shard of one trace; merge rejects
// mismatched configurations and mixed result/delta arguments.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/remote"
	"paragraph/internal/shard"
	"paragraph/internal/stats"
	"paragraph/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch os.Args[1] {
	case "split":
		runSplit(ctx, os.Args[2:])
	case "analyze":
		runAnalyze(ctx, os.Args[2:])
	case "merge":
		runMerge(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pgshard: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  pgshard split   -trace FILE -shards N [-degraded] -plan PLAN
  pgshard analyze -trace FILE -plan PLAN -shard I [-prev PREV.pgsr] -out OUT.pgsr [analysis flags]
  pgshard analyze -trace FILE -plan PLAN -shard I -speculate -out OUT.pgsd [analysis flags]
  pgshard merge   SHARD-0.pgsr SHARD-1.pgsr ...   (or SHARD-*.pgsd from -speculate runs)

Run 'pgshard analyze -h' for the analysis flags (they mirror paragraph).
`)
	os.Exit(2)
}

func runSplit(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("pgshard split", flag.ExitOnError)
	traceFile := fs.String("trace", "", "stored v2 trace to split (local path or http(s) URL)")
	shards := fs.Int("shards", 0, "number of shards to plan")
	degraded := fs.Bool("degraded", false, "tolerate corrupt chunks; shards skip them exactly as a monolithic degraded read would")
	useMmap := fs.Bool("mmap", false, "memory-map the trace instead of reading it into the heap")
	planOut := fs.String("plan", "plan.json", "write the shard plan (JSON) to this file")
	fs.Parse(args)
	if *traceFile == "" || *shards < 1 {
		fatal(fmt.Errorf("split needs -trace and -shards >= 1"))
	}
	data, closeTrace, err := readTrace(ctx, *traceFile, *useMmap)
	if err != nil {
		fatal(err)
	}
	defer closeTrace()
	plan, err := shard.Split(data, *shards, shard.Options{Degraded: *degraded})
	if err != nil {
		fatal(err)
	}
	if err := shard.SavePlan(*planOut, plan); err != nil {
		fatal(err)
	}
	fmt.Printf("planned %d shard(s) over %s events (%s trace bytes) -> %s\n",
		len(plan.Shards), stats.FormatInt(int64(plan.TotalEvents)),
		stats.FormatInt(plan.TraceBytes), *planOut)
	for _, sh := range plan.Shards {
		fmt.Printf("  shard %d: bytes [%d,%d) events [%s,%s)\n", sh.Index, sh.Start, sh.End,
			stats.FormatInt(int64(sh.StartEvent)), stats.FormatInt(int64(sh.StartEvent+sh.Events)))
	}
}

func runAnalyze(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("pgshard analyze", flag.ExitOnError)
	traceFile := fs.String("trace", "", "stored v2 trace file the plan was made for")
	planFile := fs.String("plan", "", "shard plan written by pgshard split")
	shardIdx := fs.Int("shard", -1, "index of the shard to analyze")
	prevFile := fs.String("prev", "", "previous shard's result file (required for every shard but the first)")
	outFile := fs.String("out", "", "write this shard's result file here")
	speculate := fs.Bool("speculate", false, "compile this shard speculatively (no -prev, so all shards can run concurrently) into a delta file; merge splices the deltas")

	syscalls := fs.String("syscalls", "conservative", "system-call policy: conservative or optimistic")
	renameRegs := fs.Bool("rename-regs", false, "remove register storage dependencies")
	renameStack := fs.Bool("rename-stack", false, "remove stack-segment storage dependencies")
	renameData := fs.Bool("rename-data", false, "remove non-stack memory storage dependencies")
	renameAll := fs.Bool("rename-all", false, "enable all renaming switches")
	window := fs.Int("window", 0, "instruction window size (0 = whole trace)")
	fus := fs.Int("fus", 0, "generic functional units (0 = unlimited)")
	unitLat := fs.Bool("unit-latency", false, "give every operation a one-level latency")
	branches := fs.String("branches", "perfect", "branch model: perfect, stall, static, twobit")
	profile := fs.Bool("profile", false, "collect the parallelism profile")
	buckets := fs.Int("buckets", 0, "profile resolution in buckets (0 = default)")
	lifetimes := fs.Bool("lifetimes", false, "collect the value-lifetime distribution")
	sharing := fs.Bool("sharing", false, "collect the degree-of-sharing distribution")
	storage := fs.Bool("storage", false, "collect the live-well occupancy curve")
	memBudget := fs.String("mem-budget", "", "memory budget for the analyzer working set, e.g. 64M (empty = unlimited)")
	budgetPolicy := fs.String("budget-policy", "fail", "over-budget response: fail, degrade or warn")
	useMmap := fs.Bool("mmap", false, "memory-map the trace instead of reading it into the heap; the shard decodes zero-copy from the mapping")
	fs.Parse(args)
	if *traceFile == "" || *planFile == "" || *shardIdx < 0 || *outFile == "" {
		fatal(fmt.Errorf("analyze needs -trace, -plan, -shard and -out"))
	}

	cfg := core.Config{
		WindowSize:      *window,
		FunctionalUnits: *fus,
		UnitLatency:     *unitLat,
		Profile:         *profile,
		ProfileBuckets:  *buckets,
		Lifetimes:       *lifetimes,
		Sharing:         *sharing,
		StorageProfile:  *storage,
	}
	switch *branches {
	case "perfect":
		cfg.Branches = core.BranchPerfect
	case "stall":
		cfg.Branches = core.BranchStall
	case "static", "btfn":
		cfg.Branches = core.BranchStatic
	case "twobit", "2bit":
		cfg.Branches = core.BranchTwoBit
	default:
		fatal(fmt.Errorf("bad -branches value %q", *branches))
	}
	switch *syscalls {
	case "conservative", "cons":
		cfg.Syscalls = core.SyscallConservative
	case "optimistic", "opt":
		cfg.Syscalls = core.SyscallOptimistic
	default:
		fatal(fmt.Errorf("bad -syscalls value %q", *syscalls))
	}
	if *renameAll || (!*renameRegs && !*renameStack && !*renameData) {
		cfg.RenameRegisters, cfg.RenameStack, cfg.RenameData = true, true, true
	} else {
		cfg.RenameRegisters, cfg.RenameStack, cfg.RenameData = *renameRegs, *renameStack, *renameData
	}
	if *memBudget != "" {
		b, err := budget.ParseBytes(*memBudget)
		if err != nil {
			fatal(err)
		}
		cfg.MemBudget = b
		pol, err := budget.ParsePolicy(*budgetPolicy)
		if err != nil {
			fatal(err)
		}
		cfg.BudgetPolicy = pol
	}

	plan, err := shard.LoadPlan(*planFile)
	if err != nil {
		fatal(err)
	}
	if *shardIdx >= len(plan.Shards) {
		fatal(fmt.Errorf("plan has %d shard(s); no shard %d", len(plan.Shards), *shardIdx))
	}
	data, closeTrace, err := readTrace(ctx, *traceFile, *useMmap)
	if err != nil {
		fatal(err)
	}
	defer closeTrace()

	if *speculate {
		if *prevFile != "" {
			fatal(fmt.Errorf("-prev is meaningless with -speculate: speculative shards build with no predecessor"))
		}
		sh := plan.Shards[*shardIdx]
		d, err := shard.BuildDeltaBytes(ctx, data, cfg, sh, plan.Degraded, len(plan.Shards))
		if err != nil {
			fatal(err)
		}
		if err := shard.SaveDelta(*outFile, d); err != nil {
			fatal(err)
		}
		fmt.Printf("shard %d/%d: %s events compiled speculatively -> %s\n", sh.Index, len(plan.Shards),
			stats.FormatInt(int64(d.D.Events)), *outFile)
		return
	}

	// Shard 0 starts a fresh analyzer; every later shard resumes the
	// analyzer state the previous shard's process saved alongside its
	// result. This handoff is what makes N processes equal one.
	var a *core.Analyzer
	if *shardIdx == 0 {
		if *prevFile != "" {
			fatal(fmt.Errorf("shard 0 starts fresh; -prev is for later shards"))
		}
		a = core.NewAnalyzer(cfg)
	} else {
		if *prevFile == "" {
			fatal(fmt.Errorf("shard %d needs -prev (shard %d's result file)", *shardIdx, *shardIdx-1))
		}
		prev, cp, err := shard.LoadResult(*prevFile)
		if err != nil {
			fatal(err)
		}
		if prev.Index != *shardIdx-1 {
			fatal(fmt.Errorf("-prev holds shard %d, want shard %d", prev.Index, *shardIdx-1))
		}
		if cp == nil {
			fatal(fmt.Errorf("-prev carries no checkpoint (is it the last shard's result?)"))
		}
		a = cp.Restore()
	}

	sh := plan.Shards[*shardIdx]
	res, cp, err := shard.RunShardBytes(ctx, a, data, cfg, sh, plan.Degraded, len(plan.Shards), *shardIdx < len(plan.Shards)-1)
	if err != nil {
		fatal(err)
	}
	if err := shard.SaveResult(*outFile, res, cp); err != nil {
		fatal(err)
	}
	fmt.Printf("shard %d/%d: %s events analyzed -> %s\n", sh.Index, len(plan.Shards),
		stats.FormatInt(int64(res.Events)), *outFile)
}

func runMerge(args []string) {
	fs := flag.NewFlagSet("pgshard merge", flag.ExitOnError)
	fs.Parse(args)
	files := fs.Args()
	if len(files) == 0 {
		fatal(fmt.Errorf("merge needs the shard result files as arguments"))
	}
	if deltas, ok, err := loadDeltas(files); err != nil {
		fatal(err)
	} else if ok {
		parts, res, rs, err := shard.Splice(deltas)
		if err != nil {
			fatal(err)
		}
		if err := shard.RenderMerge(os.Stdout, res, rs, parts); err != nil {
			fatal(err)
		}
		return
	}
	parts, err := loadParts(files)
	if err != nil {
		fatal(err)
	}
	res, rs, err := shard.Merge(parts)
	if err != nil {
		fatal(err)
	}
	if err := shard.RenderMerge(os.Stdout, res, rs, parts); err != nil {
		fatal(err)
	}
}

// loadDeltas sniffs whether the merge was handed speculative delta files
// (their magic distinguishes them from result files). The first file
// decides; a mix of deltas and results fails with an error naming the
// odd file out — splicing half a chain against finished results would
// misreport the trace. A delta in a retired format fails by name.
func loadDeltas(files []string) ([]*shard.Delta, bool, error) {
	first, err := shard.LoadDelta(files[0])
	if errors.Is(err, shard.ErrDeltaVersion) {
		return nil, false, fmt.Errorf("merge: %s: %w", files[0], err)
	}
	if err != nil {
		return nil, false, nil // not a delta chain; let loadParts report
	}
	deltas := make([]*shard.Delta, len(files))
	deltas[0] = first
	for i, f := range files[1:] {
		d, err := shard.LoadDelta(f)
		if err != nil {
			return nil, false, fmt.Errorf("merge: %s: %w (mixing delta and result files?)", f, err)
		}
		deltas[i+1] = d
	}
	return deltas, true, nil
}

// loadParts loads every shard-result file for a merge. A file that is
// missing, truncated, or from a different format version fails the whole
// merge with an error naming that file — a bad shard in a long argument
// list must be identifiable, and a partial merge would silently misreport
// the trace.
func loadParts(files []string) ([]*shard.Result, error) {
	parts := make([]*shard.Result, len(files))
	for i, f := range files {
		res, _, err := shard.LoadResult(f)
		if err != nil {
			return nil, fmt.Errorf("merge: %s: %w", f, err)
		}
		parts[i] = res
	}
	return parts, nil
}

// readTrace loads the trace bytes: a remote URL is fetched whole through
// the resumable ranged reader (with its fault accounting reported on
// stderr), a local file is either mapped (zero-copy, shared page cache
// across concurrent shard processes) or read whole. The closure releases
// the mapping; it must outlive every use of the returned bytes.
func readTrace(ctx context.Context, path string, useMmap bool) ([]byte, func(), error) {
	if remote.IsURL(path) {
		src, err := remote.Open(ctx, path, remote.Options{})
		if err != nil {
			return nil, nil, err
		}
		data, err := src.FetchAll(ctx)
		if st := src.Stats(); st.Retries > 0 || st.Resumes > 0 {
			fmt.Fprintf(os.Stderr, "pgshard: remote fetch: %d request(s), %d retried, %d resumed mid-body, %d throttled\n",
				st.Requests, st.Retries, st.Resumes, st.Throttled)
		}
		if err != nil {
			return nil, nil, err
		}
		return data, func() {}, nil
	}
	if useMmap {
		m, err := trace.OpenMapped(path)
		if err != nil {
			return nil, nil, err
		}
		return m.Bytes(), func() { m.Close() }, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() {}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pgshard:", err)
	os.Exit(1)
}
