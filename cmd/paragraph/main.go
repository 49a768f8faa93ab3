// Command paragraph is the dynamic-dependency-graph analyzer CLI: the
// reproduction's equivalent of running the paper's Paragraph tool over a
// Pixie trace. It accepts a stored trace file or generates one on the fly
// from a workload / MiniC source / assembly file, applies the paper's
// analysis switches, and reports critical path, available parallelism and
// (optionally) the parallelism profile and value distributions.
//
// Examples:
//
//	paragraph -workload matrixx
//	paragraph -trace matrixx.pgt -window 1024
//	paragraph -workload tomcatvx -rename-regs -plot
//	paragraph -src prog.mc -syscalls optimistic -profile prof.csv
//
// Switches mirror Section 3.2 of the paper:
//
//	-syscalls conservative|optimistic   system-call firewall policy
//	-rename-regs / -rename-stack / -rename-data   renaming switches
//	-rename-all                         enable all three (default true when
//	                                    no individual switch is given)
//	-window N                           instruction window size (0 = whole trace)
//	-fus N                              generic functional units (0 = unlimited)
//	-unit-latency                       every operation takes one level
//
// Sweeps (single-decode fan-out):
//
//	-sweep-windows 1,128,8192,0         decode or simulate the trace ONCE,
//	                                    resolve its dependencies once, then
//	                                    schedule every window size with a
//	                                    pool of concurrent analyzers
//	-j N                                analyzer workers for the sweep
//	                                    (0 = GOMAXPROCS, 1 = serial)
//
// Profiling:
//
//	-cpuprofile F                       write a CPU profile to F
//	-memprofile F                       write a heap profile at exit to F
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"paragraph/internal/asm"
	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/cpu"
	"paragraph/internal/harness"
	"paragraph/internal/minic"
	"paragraph/internal/prof"
	"paragraph/internal/remote"
	"paragraph/internal/shard"
	"paragraph/internal/stats"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

func main() {
	var (
		traceFile = flag.String("trace", "", "stored trace file to analyze (local path or http(s) URL; remote traces are fetched with resumable ranged retries)")
		workload  = flag.String("workload", "", "built-in workload to trace and analyze")
		srcFile   = flag.String("src", "", "MiniC source to trace and analyze")
		asmFile   = flag.String("asm", "", "assembly source to trace and analyze")
		scale     = flag.Int("scale", 1, "workload scale factor")
		maxInst   = flag.Uint64("max", 0, "instruction budget (0 = unlimited)")

		syscalls    = flag.String("syscalls", "conservative", "system-call policy: conservative or optimistic")
		renameRegs  = flag.Bool("rename-regs", false, "remove register storage dependencies")
		renameStack = flag.Bool("rename-stack", false, "remove stack-segment storage dependencies")
		renameData  = flag.Bool("rename-data", false, "remove non-stack memory storage dependencies")
		renameAll   = flag.Bool("rename-all", false, "enable all renaming switches")
		window      = flag.Int("window", 0, "instruction window size (0 = whole trace)")
		fus         = flag.Int("fus", 0, "generic functional units (0 = unlimited)")
		unitLat     = flag.Bool("unit-latency", false, "give every operation a one-level latency")
		branches    = flag.String("branches", "perfect", "branch model: perfect, stall, static, twobit")

		profileOut = flag.String("profile", "", "write the parallelism profile as CSV to this file")
		plot       = flag.Bool("plot", false, "print an ASCII parallelism profile")
		buckets    = flag.Int("buckets", 0, "profile resolution in buckets (0 = default)")
		lifetimes  = flag.Bool("lifetimes", false, "collect and print the value-lifetime distribution")
		twoPass    = flag.Bool("two-pass", false, "with -trace: run the paper's two-pass dead-value analysis")
		storageOut = flag.String("storage", "", "write the live-well occupancy curve as CSV to this file")
		sharing    = flag.Bool("sharing", false, "collect and print the degree-of-sharing distribution")
		degraded   = flag.Bool("degraded", false, "with -trace: skip corrupt v2 chunks instead of failing fast, reporting what was lost")
		useMmap    = flag.Bool("mmap", false, "with -trace: memory-map the trace file and decode it zero-copy (falls back to one buffered read where mmap is unavailable)")

		sweepWindows = flag.String("sweep-windows", "", "comma-separated window sizes (0 = whole trace): decode the trace once and analyze every size, e.g. -sweep-windows 1,128,8192,0")
		jobs         = flag.Int("j", 0, "with -sweep-windows: concurrent analyzers per decode pass (0 = all windows at once); with -shards -speculate: concurrent shard builds (0 = GOMAXPROCS)")
		shards       = flag.Int("shards", 0, "analyze the trace in N chunk-aligned shards, each streamed through the analyzer in turn, with a deterministic merge (0 = monolithic)")
		speculate    = flag.Bool("speculate", false, "with -shards: analyze all shards concurrently (speculative per-shard compilation + sequential seam splice); results are identical to the chained run")

		memBudget     = flag.String("mem-budget", "", "memory budget for the analyzer working set, e.g. 64M or 1G (empty = unlimited)")
		budgetPolicy  = flag.String("budget-policy", "fail", "over-budget response: fail, degrade or warn")
		autosave      = flag.String("autosave", "", "with -trace: periodically save a resumable checkpoint to this file")
		autosaveEvery = flag.Uint64("autosave-every", 1_000_000, "events between autosaved checkpoints")
		resume        = flag.Bool("resume", false, "with -trace and -autosave: resume from the saved checkpoint instead of starting over")
		retryReads    = flag.Bool("retry-reads", false, "with -trace: retry transient read errors with jittered backoff instead of failing fast")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" || *memProfile != "" {
		stop, err := prof.Start(*cpuProfile, *memProfile, os.Stderr)
		if err != nil {
			fatal(err)
		}
		// fatal() exits without running defers, so it runs the same
		// (idempotent) stop closure itself; see stopProfiles.
		stopProfiles = stop
		defer stop()
	}

	// Ctrl-C / SIGTERM cancel the analysis promptly (within one
	// budget.CheckEvery stride) instead of killing the process mid-write;
	// with -autosave the last checkpoint survives for -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A remote -trace URL is fetched once up front — with resumable Range
	// requests and retried transient faults — into a temp file every
	// downstream path (streaming, mmap, shards, sweeps) reads like a local
	// trace. The fetch accounting goes to stderr so flaky-network runs are
	// visible.
	if *traceFile != "" && remote.IsURL(*traceFile) {
		local, cleanup, err := fetchRemoteTrace(ctx, *traceFile)
		if err != nil {
			fatal(err)
		}
		defer cleanup()
		*traceFile = local
	}

	cfg := core.Config{
		WindowSize:      *window,
		FunctionalUnits: *fus,
		UnitLatency:     *unitLat,
		ProfileBuckets:  *buckets,
		Profile:         *plot || *profileOut != "",
		Lifetimes:       *lifetimes,
		Sharing:         *sharing,
		StorageProfile:  *storageOut != "",
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
		// Default, as in the paper's headline analysis: full renaming.
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

	if *speculate && *shards == 0 {
		fatal(fmt.Errorf("-speculate only applies with -shards"))
	}
	if *sweepWindows != "" {
		if *shards != 0 {
			fatal(fmt.Errorf("-shards is incompatible with -sweep-windows"))
		}
		runWindowSweep(ctx, cfg, *sweepWindows, *jobs, *traceFile, *workload, *srcFile, *asmFile, *scale, *maxInst, *degraded, *useMmap)
		return
	}

	if *shards != 0 {
		if *shards < 1 {
			fatal(fmt.Errorf("-shards must be at least 1"))
		}
		if *twoPass || *autosave != "" || *resume {
			fatal(fmt.Errorf("-shards is incompatible with -two-pass, -autosave and -resume (sharding has its own resume seam: pgshard)"))
		}
		if *traceFile != "" && *maxInst != 0 {
			fatal(fmt.Errorf("-shards analyzes a stored trace whole; -max only applies when simulating"))
		}
		runSharded(ctx, cfg, *shards, *jobs, *traceFile, *workload, *srcFile, *asmFile, *scale, *maxInst, *degraded, *useMmap,
			*speculate, *plot, *profileOut, *lifetimes, *sharing, *storageOut)
		return
	}

	if *resume && *autosave == "" {
		fatal(fmt.Errorf("-resume needs -autosave to name the checkpoint file"))
	}
	if *autosave != "" {
		if *traceFile == "" {
			fatal(fmt.Errorf("-autosave needs a stored trace (-trace): checkpoints index into the trace file"))
		}
		if *maxInst != 0 {
			fatal(fmt.Errorf("-autosave is incompatible with -max"))
		}
	}

	if *traceFile != "" && (*twoPass || *autosave != "") {
		// The two passes each walk the whole trace; mapping it makes the
		// second pass (and a resumed skip-ahead) decode straight from the
		// page cache through a bytes.Reader.
		var rs io.ReadSeeker
		if *useMmap {
			m, err := trace.OpenMapped(*traceFile)
			if err != nil {
				fatal(err)
			}
			defer m.Close()
			rs = bytes.NewReader(m.Bytes())
		} else {
			f, err := os.Open(*traceFile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			rs = f
		}
		var rstats trace.ReadStats
		opts := core.TwoPassOptions{Degraded: *degraded, Stats: &rstats}
		if *autosave != "" {
			opts.CheckpointEvery = *autosaveEvery
			opts.OnCheckpoint = func(cp *core.Checkpoint) error {
				return core.SaveCheckpoint(*autosave, cp)
			}
			// An interrupt (Ctrl-C, SIGTERM) flushes one final checkpoint
			// at the interruption point, so -resume loses no progress.
			opts.FinalOnCancel = true
		}
		var res *core.Result
		if *resume {
			cp, err := core.LoadCheckpoint(*autosave)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "paragraph: resuming from %s at event %s\n",
				*autosave, stats.FormatInt(int64(cp.EventOffset)))
			res, err = core.ResumeTwoPass(ctx, rs, cp, opts)
			if err != nil {
				failAnalysis(err, *autosave)
			}
		} else {
			run := core.AnalyzeTraceOpts
			if *twoPass {
				run = core.AnalyzeTwoPassOpts
			}
			r, err := run(ctx, rs, cfg, opts)
			if err != nil {
				failAnalysis(err, *autosave)
			}
			res = r
		}
		reportSkips(rstats)
		report(res, *plot, *profileOut, *lifetimes, *sharing)
		writeStorage(res, *storageOut)
		return
	}
	if *twoPass {
		fatal(fmt.Errorf("-two-pass needs a stored trace (-trace)"))
	}

	analyzer := core.NewAnalyzer(cfg)

	switch {
	case *traceFile != "":
		tr, retryStats, closeTrace, err := openTrace(*traceFile, *useMmap, *degraded, *retryReads)
		if err != nil {
			fatal(err)
		}
		defer closeTrace()
		n := uint64(0)
		err = tr.ForEach(func(e *trace.Event) error {
			if n%budget.CheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("analysis canceled at event %d: %w", n, err)
				}
			}
			if *maxInst != 0 && n >= *maxInst {
				return errBudget
			}
			n++
			return analyzer.Event(e)
		})
		if err != nil && err != errBudget {
			fatal(err)
		}
		reportSkips(tr.Stats())
		reportRetries(retryStats)
	default:
		prog, err := buildProgram(*workload, *srcFile, *asmFile, *scale)
		if err != nil {
			fatal(err)
		}
		machine, err := cpu.New(prog, cpu.WithTrace(analyzer), cpu.WithStdout(os.Stderr))
		if err != nil {
			fatal(err)
		}
		if _, err := machine.Run(*maxInst); err != nil && err != cpu.ErrLimit {
			fatal(err)
		}
	}

	res, err := analyzer.Finish()
	if err != nil {
		fatal(err)
	}
	report(res, *plot, *profileOut, *lifetimes, *sharing)
	writeStorage(res, *storageOut)
}

// runWindowSweep is the shared-extraction fan-out path: the trace is
// decoded from a file (or simulated) and resolved into policy-free
// dependence records ONCE per decode pass, and every requested window size
// schedules those records (harness.FanOutResolved: concurrently over a
// bounded segment ring whose segments the resolver recycles, or inline on
// one CPU), so memory never grows with trace length and the per-window
// cost is the cheap replay half of analysis only. -j bounds the concurrent
// scheduler count by splitting the windows into groups of that size, one
// decode (or simulation) + resolution pass per group; 0 analyzes every
// window in a single pass. The output is one table row per window.
func runWindowSweep(ctx context.Context, base core.Config, sizesArg string, jobs int, traceFile, workload, srcFile, asmFile string, scale int, maxInst uint64, degraded, useMmap bool) {
	var sizes []int
	for _, s := range strings.Split(sizesArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 0 {
			fatal(fmt.Errorf("bad -sweep-windows entry %q", s))
		}
		sizes = append(sizes, n)
	}

	produce := func(rs *harness.ResolverStream) error {
		if traceFile != "" {
			tr, _, closeTrace, err := openTrace(traceFile, useMmap, degraded, false)
			if err != nil {
				return err
			}
			defer closeTrace()
			if err := tr.ForEachBatch(rs.Events); err != nil {
				return err
			}
			rs.SetStats(tr.Stats())
			return nil
		}
		prog, err := buildProgram(workload, srcFile, asmFile, scale)
		if err != nil {
			return err
		}
		machine, err := cpu.New(prog, cpu.WithTrace(rs), cpu.WithStdout(os.Stderr))
		if err != nil {
			return err
		}
		if _, err := machine.Run(maxInst); err != nil && err != cpu.ErrLimit {
			return err
		}
		return nil
	}

	cfgs := make([]core.Config, len(sizes))
	for i, size := range sizes {
		c := base
		c.Profile = false // per-window profiles would drown the table
		c.WindowSize = size
		cfgs[i] = c
	}
	group := len(cfgs)
	if jobs > 0 && jobs < group {
		group = jobs
	}
	start := time.Now()
	results := make([]*core.Result, 0, len(cfgs))
	for lo := 0; lo < len(cfgs); lo += group {
		hi := lo + group
		if hi > len(cfgs) {
			hi = len(cfgs)
		}
		rs, rstats, err := harness.FanOutResolved(ctx, produce, cfgs[lo:hi], 0)
		if err != nil {
			fatal(err)
		}
		if lo == 0 {
			reportSkips(rstats)
		}
		results = append(results, rs...)
	}
	var events int64
	if len(results) > 0 {
		events = int64(results[0].Instructions)
	}
	fmt.Fprintf(os.Stderr, "paragraph: analyzed %s events x %d windows in %v\n",
		stats.FormatInt(events), len(sizes), time.Since(start).Round(time.Millisecond))

	t := stats.NewTable("Window", "Operations", "Critical Path", "Available")
	for i, r := range results {
		win := "full"
		if sizes[i] > 0 {
			win = stats.FormatInt(int64(sizes[i]))
		}
		t.AddRow(win, stats.FormatInt(int64(r.Operations)), stats.FormatInt(r.CriticalPath), r.Available)
	}
	must(t.Render(os.Stdout))
}

// runSharded is the in-process sharded path: the trace bytes (read from a
// file or encoded from one simulation) are split at chunk boundaries, each
// shard streams through one analyzer in turn, and the per-shard results
// merge into a Result deep-equal to a monolithic run (see internal/shard).
// With speculate, the shard chain is broken: up to jobs shards build
// concurrently and a sequential splice fixes up the seams (see
// internal/shard/speculate.go).
func runSharded(ctx context.Context, cfg core.Config, n, jobs int, traceFile, workload, srcFile, asmFile string, scale int, maxInst uint64, degraded, useMmap, speculate bool, plot bool, profileOut string, lifetimes, sharing bool, storageOut string) {
	var data []byte
	if traceFile != "" {
		if useMmap {
			// Every shard decodes its byte range straight out of the
			// mapping; the splitter's planning scan does too.
			m, err := trace.OpenMapped(traceFile)
			if err != nil {
				fatal(err)
			}
			defer m.Close()
			data = m.Bytes()
		} else {
			var err error
			data, err = os.ReadFile(traceFile)
			if err != nil {
				fatal(err)
			}
		}
	} else {
		prog, err := buildProgram(workload, srcFile, asmFile, scale)
		if err != nil {
			fatal(err)
		}
		var enc bytes.Buffer
		tw, err := trace.NewWriter(&enc)
		if err != nil {
			fatal(err)
		}
		machine, err := cpu.New(prog, cpu.WithTrace(tw), cpu.WithStdout(os.Stderr))
		if err != nil {
			fatal(err)
		}
		if _, err := machine.Run(maxInst); err != nil && err != cpu.ErrLimit {
			fatal(err)
		}
		if err := tw.Flush(); err != nil {
			fatal(err)
		}
		data = enc.Bytes()
	}

	start := time.Now()
	res, rs, err := shard.Analyze(ctx, data, cfg, n, shard.Options{Degraded: degraded, Concurrency: jobs, Speculate: speculate})
	if err != nil {
		fatal(err)
	}
	mode := "chained"
	if speculate {
		mode = "speculative"
	}
	fmt.Fprintf(os.Stderr, "paragraph: analyzed %s events in %d %s shard(s) in %v\n",
		stats.FormatInt(int64(res.Instructions)), n, mode, time.Since(start).Round(time.Millisecond))
	reportSkips(rs)
	report(res, plot, profileOut, lifetimes, sharing)
	writeStorage(res, storageOut)
}

// openTrace opens a stored trace for reading, memory-mapped and zero-copy
// when useMmap is set (with a transparent buffered-read fallback on
// platforms without mmap), streaming through bufio otherwise. With retry,
// the streaming read path absorbs transient I/O errors with jittered
// backoff; the returned stats closure (nil when no retry layer is active)
// reports what was absorbed. The close closure releases the file or
// mapping once reading is done.
func openTrace(path string, useMmap, degraded, retry bool) (*trace.Reader, func() trace.RetryStats, func(), error) {
	if useMmap {
		// A mapping has no read syscalls left to retry.
		m, err := trace.OpenMapped(path)
		if err != nil {
			return nil, nil, nil, err
		}
		r, err := m.Reader(trace.ReaderOptions{Degraded: degraded})
		if err != nil {
			m.Close()
			return nil, nil, nil, err
		}
		return r, nil, func() { m.Close() }, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	var src io.Reader = f
	var statsFn func() trace.RetryStats
	if retry {
		rr := trace.NewRetryReader(f, trace.RetryOptions{})
		src = rr
		statsFn = rr.Stats
	}
	r, err := trace.NewReaderOpts(src, trace.ReaderOptions{Degraded: degraded})
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return r, statsFn, func() { f.Close() }, nil
}

// reportRetries surfaces the streaming read path's retry accounting when a
// -retry-reads run actually absorbed faults; quiet runs stay quiet.
func reportRetries(statsFn func() trace.RetryStats) {
	if statsFn == nil {
		return
	}
	st := statsFn()
	if st.Retries == 0 && st.GaveUp == 0 {
		return
	}
	fmt.Fprintf(os.Stderr,
		"paragraph: retried %d transient read error(s) over %d extra attempt(s), %v backing off\n",
		st.Retries, st.Attempts, st.Slept.Round(time.Millisecond))
	if st.GaveUp > 0 {
		fmt.Fprintf(os.Stderr, "paragraph: warning: %d read(s) still failed after all retries\n", st.GaveUp)
	}
}

// fetchRemoteTrace downloads a remote trace into a temp file using the
// resumable ranged reader, reporting the transfer and its fault accounting
// on stderr. The cleanup closure removes the temp file.
func fetchRemoteTrace(ctx context.Context, url string) (string, func(), error) {
	src, err := remote.Open(ctx, url, remote.Options{})
	if err != nil {
		return "", nil, err
	}
	data, err := src.FetchAll(ctx)
	st := src.Stats()
	if st.Retries > 0 || st.Resumes > 0 {
		fmt.Fprintf(os.Stderr, "paragraph: remote fetch: %d request(s), %d retried, %d resumed mid-body, %d throttled\n",
			st.Requests, st.Retries, st.Resumes, st.Throttled)
	}
	if err != nil {
		return "", nil, err
	}
	f, err := os.CreateTemp("", "paragraph-remote-*.pgt")
	if err != nil {
		return "", nil, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", nil, err
	}
	fmt.Fprintf(os.Stderr, "paragraph: fetched %s trace bytes from %s\n",
		stats.FormatInt(int64(len(data))), url)
	return f.Name(), func() { os.Remove(f.Name()) }, nil
}

// failAnalysis reports an analysis failure and exits. For an interrupted
// run that left a resumable checkpoint behind, it names the checkpoint and
// the flag that continues from it instead of printing a bare error.
func failAnalysis(err error, autosave string) {
	if autosave != "" && errors.Is(err, context.Canceled) {
		if _, serr := os.Stat(autosave); serr == nil {
			fmt.Fprintf(os.Stderr, "paragraph: interrupted; checkpoint saved to %s — rerun with -resume to continue\n", autosave)
			os.Exit(1)
		}
	}
	fatal(err)
}

// reportSkips warns on stderr when a degraded-mode read lost events; the
// metrics then describe only the surviving part of the trace.
func reportSkips(st trace.ReadStats) {
	if st.SkippedChunks == 0 && st.DuplicateChunks == 0 {
		return
	}
	fmt.Fprintf(os.Stderr,
		"paragraph: warning: degraded read skipped %d corrupt chunk(s) (~%d events, resync over %d bytes), dropped %d duplicate chunk(s)\n",
		st.SkippedChunks, st.SkippedEvents, st.ResyncBytes, st.DuplicateChunks)
}

// writeStorage dumps the live-well occupancy curve, if collected.
func writeStorage(res *core.Result, path string) {
	if path == "" || len(res.StorageProfile) == 0 {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := stats.WriteCSV(f, "instruction", "live_words", res.StorageProfile); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("storage profile written to %s\n", path)
}

var errBudget = fmt.Errorf("budget reached")

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func buildProgram(workload, srcFile, asmFile string, scale int) (*asm.Program, error) {
	switch {
	case workload != "":
		w, ok := workloads.ByName(workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", workload)
		}
		return w.Build(scale, minic.Options{})
	case srcFile != "":
		src, err := os.ReadFile(srcFile)
		if err != nil {
			return nil, err
		}
		return minic.Build(string(src), minic.Options{})
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			return nil, err
		}
		return asm.Assemble(string(src))
	}
	return nil, fmt.Errorf("one of -trace, -workload, -src or -asm is required")
}

func report(res *core.Result, plot bool, profileOut string, lifetimes, sharing bool) {
	fmt.Printf("configuration:        syscalls %s, rename regs=%v stack=%v data=%v, window %s, FUs %s\n",
		res.Config.Syscalls,
		res.Config.RenameRegisters, res.Config.RenameStack, res.Config.RenameData,
		orUnlimited(res.Config.WindowSize), orUnlimited(res.Config.FunctionalUnits))
	fmt.Printf("instructions:         %s\n", stats.FormatInt(int64(res.Instructions)))
	fmt.Printf("operations in DDG:    %s\n", stats.FormatInt(int64(res.Operations)))
	fmt.Printf("system calls:         %d\n", res.Syscalls)
	fmt.Printf("critical path length: %s\n", stats.FormatInt(res.CriticalPath))
	fmt.Printf("available parallelism: %s\n", stats.FormatFloat(res.Available))
	if res.PeakOps > 0 {
		fmt.Printf("peak ops per level:   %s\n", stats.FormatFloat(res.PeakOps))
	}
	fmt.Printf("peak live memory:     %s words\n", stats.FormatInt(int64(res.MaxLiveMemoryWords)))
	if res.Branches > 0 {
		fmt.Printf("branch model:         %s, %s branches, %.2f%% mispredicted\n",
			res.Config.Branches, stats.FormatInt(int64(res.Branches)),
			float64(res.Mispredictions)/float64(res.Branches)*100)
	}
	if g := res.Governor; g != nil {
		fmt.Printf("memory budget:        peak %s bytes (live well %s), %d checks\n",
			stats.FormatInt(g.PeakBytes), stats.FormatInt(g.PeakLiveWellBytes), g.Checks)
		if g.Governed() {
			fmt.Printf("budget governance:    %d degradation(s), %d warning(s)",
				g.Degradations, g.Warnings)
			if g.EffectiveWindow > 0 {
				fmt.Printf(", effective window %s", stats.FormatInt(int64(g.EffectiveWindow)))
			}
			fmt.Println()
		}
	}

	if plot && len(res.Profile) > 0 {
		fmt.Println()
		_ = stats.AsciiPlot(os.Stdout, "parallelism profile (ops per DDG level)", res.Profile, 32, 56)
	}
	if profileOut != "" {
		f, err := os.Create(profileOut)
		if err != nil {
			fatal(err)
		}
		if err := stats.WriteCSV(f, "level", "operations", res.Profile); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("profile written to %s (%d buckets, width %d)\n",
			profileOut, len(res.Profile), res.ProfileBucketWidth)
	}
	if lifetimes {
		fmt.Printf("value lifetimes:      %s\n", res.Lifetimes.String())
		for _, b := range res.Lifetimes.Buckets() {
			fmt.Printf("  %10d..%-10d %12d\n", b.Low, b.High, b.Count)
		}
	}
	if sharing {
		fmt.Printf("degree of sharing:    %s\n", res.Sharing.String())
		for _, b := range res.Sharing.Buckets() {
			fmt.Printf("  %10d..%-10d %12d\n", b.Low, b.High, b.Count)
		}
	}
}

func orUnlimited(n int) string {
	if n == 0 {
		return "unlimited"
	}
	return fmt.Sprint(n)
}

// stopProfiles flushes any active -cpuprofile / -memprofile collection; it
// is set once in main and called both from the normal deferred exit and
// from fatal, which os.Exits past the defers.
var stopProfiles func()

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paragraph:", err)
	if stopProfiles != nil {
		stopProfiles()
	}
	os.Exit(1)
}
