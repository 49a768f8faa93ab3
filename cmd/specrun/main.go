// Command specrun regenerates the paper's evaluation: every table and
// figure of Section 4, plus the extension experiments from DESIGN.md.
//
// Usage:
//
//	specrun -all                         run everything
//	specrun -table3 -table4              selected experiments
//	specrun -fig7 -out results/          also dump per-benchmark CSVs
//	specrun -scale 4 -table3             larger traces
//	specrun -workloads matrixx,xlispx -fig8
//
// Experiments:
//
//	-table1           instruction-class operation times (configuration)
//	-table2           benchmark inventory with trace lengths
//	-table3           dataflow limit, conservative vs optimistic syscalls
//	-table4           available parallelism under four renaming conditions
//	-fig7             parallelism profiles (ASCII; CSV with -out)
//	-fig8             percent of parallelism vs window size
//	-fus              functional-unit sweep (extension E8)
//	-lifetimes        value lifetime / sharing distributions (extension E9)
//	-ablation-unroll  compiler loop-unrolling ablation (extension E7)
//	-branches         branch-prediction model sweep (extension E10)
//
// Resilience:
//
//	-keep-going       continue past failing workloads; failed rows are
//	                  marked FAILED in the tables and the exit code is 1
//	-timeout D        per-workload wall-clock budget (e.g. -timeout 30s)
//	-mem-budget B     per-analyzer memory budget, e.g. 64M (0 = unlimited)
//	-mem-budget-global B
//	                  one budget divided across all concurrently running
//	                  workloads; effective -j shrinks before analyses
//	                  degrade, and shares re-expand as workloads finish
//	-budget-policy P  over-budget response: fail, degrade or warn
//	-autosave F       save finished rows to F as the run progresses — an
//	                  append-only CRC-framed log, one fsynced record per
//	                  row — so a killed run can pick up where it left
//	-resume           with -autosave: reuse rows already in F instead of
//	                  recomputing them; output is identical to a full run
//	                  because workloads are deterministic
//
// Ctrl-C / SIGTERM cancel the run promptly (partial autosave survives).
//
// Parallelism:
//
//	-j N              run up to N workloads concurrently AND schedule
//	                  each workload's analyzer configs concurrently, one
//	                  goroutine per config (0 = GOMAXPROCS, the default;
//	                  -j 1 = fully serial: every config scheduled inline on
//	                  the goroutine that simulates). Every experiment
//	                  produces identical output at any -j value.
//
// Profiling:
//
//	-cpuprofile F     write a CPU profile of the run to F
//	-memprofile F     write a heap profile at exit to F
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"paragraph/internal/budget"
	"paragraph/internal/harness"
	"paragraph/internal/prof"
	"paragraph/internal/workloads"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable entry point: it parses args, executes the selected
// experiments, and returns the process exit code (0 success, 1 any failure —
// including per-workload failures in keep-going mode — 2 usage error).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("specrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all      = fs.Bool("all", false, "run every experiment")
		table1   = fs.Bool("table1", false, "print Table 1 (operation times)")
		table2   = fs.Bool("table2", false, "run Table 2 (benchmark inventory)")
		table3   = fs.Bool("table3", false, "run Table 3 (dataflow limits)")
		table4   = fs.Bool("table4", false, "run Table 4 (renaming conditions)")
		fig7     = fs.Bool("fig7", false, "run Figure 7 (parallelism profiles)")
		fig8     = fs.Bool("fig8", false, "run Figure 8 (window-size sweep)")
		fus      = fs.Bool("fus", false, "run the functional-unit sweep (E8)")
		lifet    = fs.Bool("lifetimes", false, "run lifetime/sharing distributions (E9)")
		ablation = fs.Bool("ablation-unroll", false, "run the loop-unrolling ablation (E7)")
		branches = fs.Bool("branches", false, "run the branch-prediction sweep (E10)")

		scale     = fs.Int("scale", 1, "workload scale factor")
		maxInst   = fs.Uint64("max", 0, "per-run instruction budget (0 = unlimited)")
		outDir    = fs.String("out", "", "directory for CSV outputs (fig7/fig8)")
		names     = fs.String("workloads", "", "comma-separated workload subset")
		ablWork   = fs.String("ablation-workload", "naskerx", "workload for the unrolling ablation")
		keepGoing = fs.Bool("keep-going", false, "continue past failing workloads; failed rows are marked and the exit code is non-zero")
		timeout   = fs.Duration("timeout", 0, "per-workload wall-clock budget, e.g. 30s (0 = unlimited)")
		jobs      = fs.Int("j", 0, "parallelism: bounds concurrent workloads; above 1 each workload also schedules its analyzer configs concurrently (0 = GOMAXPROCS, 1 = fully serial)")

		memBudget       = fs.String("mem-budget", "", "per-analyzer memory budget, e.g. 64M or 1G (empty = unlimited)")
		memBudgetGlobal = fs.String("mem-budget-global", "", "one memory budget divided across all concurrently running workloads, e.g. 1G (empty = none); shrinks effective -j before degrading analyses")
		budgetPolicy    = fs.String("budget-policy", "fail", "over-budget response: fail, degrade or warn")
		autosave        = fs.String("autosave", "", "save finished experiment rows to this file as the run progresses")
		resume          = fs.Bool("resume", false, "with -autosave: reuse saved rows instead of recomputing them")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if !(*all || *table1 || *table2 || *table3 || *table4 || *fig7 || *fig8 || *fus || *lifet || *ablation || *branches) {
		fs.Usage()
		return 2
	}

	var st *store
	fail := func(err error) int {
		fmt.Fprintln(stderr, "specrun:", err)
		// An interrupt mid-run is not lost work when autosave is on: every
		// finished row was already flushed atomically. Say so, and name the
		// flag that picks the run back up.
		if st != nil && errors.Is(err, context.Canceled) {
			fmt.Fprintf(stderr, "specrun: interrupted; %d finished row(s) saved to %s — rerun with -resume to continue\n",
				st.len(), *autosave)
		}
		return 1
	}

	if *cpuProfile != "" || *memProfile != "" {
		// run (not main) owns the exit paths, so a deferred stop covers both
		// success and failure returns; the closure is idempotent regardless.
		stop, err := prof.Start(*cpuProfile, *memProfile, stderr)
		if err != nil {
			return fail(err)
		}
		defer stop()
	}

	s := harness.NewSuite(*scale)
	s.MaxInstr = *maxInst
	s.ContinueOnError = *keepGoing
	s.WorkloadTimeout = *timeout
	s.Parallelism = *jobs
	s.Concurrency = *jobs
	if *memBudget != "" || *memBudgetGlobal != "" {
		pol, err := budget.ParsePolicy(*budgetPolicy)
		if err != nil {
			return fail(err)
		}
		s.BudgetPolicy = pol
		if *memBudget != "" {
			b, err := budget.ParseBytes(*memBudget)
			if err != nil {
				return fail(err)
			}
			s.MemBudget = b
		}
		if *memBudgetGlobal != "" {
			b, err := budget.ParseBytes(*memBudgetGlobal)
			if err != nil {
				return fail(err)
			}
			s.GlobalMemBudget = b
		}
	}
	if *names != "" {
		s.Workloads = nil
		for _, n := range strings.Split(*names, ",") {
			w, ok := workloads.ByName(strings.TrimSpace(n))
			if !ok {
				return fail(fmt.Errorf("unknown workload %q", n))
			}
			s.Workloads = append(s.Workloads, w)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail(err)
		}
	}
	if *resume && *autosave == "" {
		return fail(fmt.Errorf("-resume needs -autosave to name the row store"))
	}
	if *autosave != "" {
		var err error
		st, err = openStore(*autosave, *resume)
		if err != nil {
			return fail(err)
		}
		defer st.close()
	}

	exitCode := 0
	// partial handles an experiment's error. A *SuiteError from a
	// keep-going run is reported and remembered in the exit code while the
	// partial rows still render; any other error is fatal.
	partial := func(err error) bool {
		if err == nil {
			return true
		}
		var se *harness.SuiteError
		if errors.As(err, &se) {
			fmt.Fprintln(stderr, "specrun:", err)
			exitCode = 1
			return true
		}
		return false
	}
	section := func(title string) { fmt.Fprintf(stdout, "\n== %s ==\n\n", title) }

	if *all || *table1 {
		section("Table 1: Instruction Class Operation Times")
		if err := harness.RenderTable1(stdout); err != nil {
			return fail(err)
		}
	}
	if *all || *table2 {
		section("Table 2: Benchmarks Analyzed")
		rows, err := timed(stderr, "table2", func() ([]harness.Table2Row, error) {
			return cachedRows(st, "table2", s,
				func(sub *harness.Suite) ([]harness.Table2Row, error) { return sub.Table2(ctx) },
				func(r harness.Table2Row) bool { return r.Name != "" && r.Err == "" })
		})
		if !partial(err) {
			return fail(err)
		}
		if err := harness.RenderTable2(stdout, rows); err != nil {
			return fail(err)
		}
	}
	if *all || *table3 {
		section("Table 3: Dataflow Results (conservative vs optimistic system calls)")
		rows, err := timed(stderr, "table3", func() ([]harness.Table3Row, error) {
			return cachedRows(st, "table3", s,
				func(sub *harness.Suite) ([]harness.Table3Row, error) { return sub.Table3(ctx) },
				func(r harness.Table3Row) bool { return r.Name != "" && r.Err == "" })
		})
		if !partial(err) {
			return fail(err)
		}
		if err := harness.RenderTable3(stdout, rows); err != nil {
			return fail(err)
		}
	}
	if *all || *table4 {
		section("Table 4: Available Parallelism under Different Renaming Conditions")
		rows, err := timed(stderr, "table4", func() ([]harness.Table4Row, error) {
			return cachedRows(st, "table4", s,
				func(sub *harness.Suite) ([]harness.Table4Row, error) { return sub.Table4(ctx) },
				func(r harness.Table4Row) bool { return r.Name != "" && r.Err == "" })
		})
		if !partial(err) {
			return fail(err)
		}
		if err := harness.RenderTable4(stdout, rows); err != nil {
			return fail(err)
		}
	}
	if *all || *fig7 {
		section("Figure 7: Parallelism Profiles")
		profiles, err := timed(stderr, "fig7", func() ([]harness.ProfileResult, error) {
			return cachedRows(st, "fig7", s,
				func(sub *harness.Suite) ([]harness.ProfileResult, error) { return sub.Figure7(ctx) },
				func(r harness.ProfileResult) bool { return r.Name != "" })
		})
		if !partial(err) {
			return fail(err)
		}
		if err := harness.RenderFigure7(stdout, profiles); err != nil {
			return fail(err)
		}
		if *outDir != "" {
			for _, p := range profiles {
				path := filepath.Join(*outDir, "fig7_"+p.Name+".csv")
				f, err := os.Create(path)
				if err != nil {
					return fail(err)
				}
				if err := harness.WriteProfileCSV(f, p); err != nil {
					return fail(err)
				}
				if err := f.Close(); err != nil {
					return fail(err)
				}
				fmt.Fprintf(stdout, "wrote %s\n", path)
			}
		}
	}
	if *all || *fig8 {
		section("Figure 8: Window Size vs Percent of Total Available Parallelism")
		series, err := timed(stderr, "fig8", func() ([]harness.WindowSeries, error) {
			return cachedRows(st, "fig8", s,
				func(sub *harness.Suite) ([]harness.WindowSeries, error) { return sub.Figure8(ctx, nil) },
				func(r harness.WindowSeries) bool { return r.Name != "" })
		})
		if !partial(err) {
			return fail(err)
		}
		if err := harness.RenderFigure8(stdout, series); err != nil {
			return fail(err)
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, "fig8.csv")
			f, err := os.Create(path)
			if err != nil {
				return fail(err)
			}
			if err := harness.WriteFigure8CSV(f, series); err != nil {
				return fail(err)
			}
			if err := f.Close(); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
	}
	if *all || *fus {
		section("Extension E8: Functional-Unit Limits")
		rows, err := timed(stderr, "fus", func() ([]harness.FURow, error) {
			return cachedRows(st, "fus", s,
				func(sub *harness.Suite) ([]harness.FURow, error) { return sub.FunctionalUnits(ctx, nil) },
				func(r harness.FURow) bool { return r.Name != "" })
		})
		if !partial(err) {
			return fail(err)
		}
		if err := harness.RenderFunctionalUnits(stdout, rows); err != nil {
			return fail(err)
		}
	}
	if *all || *lifet {
		section("Extension E9: Value Lifetimes and Degree of Sharing")
		rows, err := timed(stderr, "lifetimes", func() ([]harness.LifetimeRow, error) {
			return cachedRows(st, "lifetimes", s,
				func(sub *harness.Suite) ([]harness.LifetimeRow, error) { return sub.Lifetimes(ctx) },
				func(r harness.LifetimeRow) bool { return r.Name != "" })
		})
		if !partial(err) {
			return fail(err)
		}
		if err := harness.RenderLifetimes(stdout, rows); err != nil {
			return fail(err)
		}
	}
	if *all || *branches {
		section("Extension E10: Branch-Prediction Models")
		rows, err := timed(stderr, "branches", func() ([]harness.BranchRow, error) {
			return cachedRows(st, "branches", s,
				func(sub *harness.Suite) ([]harness.BranchRow, error) { return sub.BranchPrediction(ctx, nil) },
				func(r harness.BranchRow) bool { return r.Name != "" })
		})
		if !partial(err) {
			return fail(err)
		}
		if err := harness.RenderBranches(stdout, rows); err != nil {
			return fail(err)
		}
	}
	if *all || *ablation {
		section("Extension E7: Compiler Loop-Unrolling Ablation (" + *ablWork + ")")
		rows, err := timed(stderr, "ablation", func() ([]harness.UnrollRow, error) {
			// The ablation sweeps unroll factors over one workload, so it
			// caches as a single unit rather than per workload.
			key := "ablation/" + *ablWork
			if rows, ok := getCached[[]harness.UnrollRow](st, key); ok {
				return rows, nil
			}
			rows, err := s.AblationUnroll(ctx, *ablWork, nil)
			if err == nil && st != nil {
				if perr := st.put(key, rows); perr != nil {
					return rows, perr
				}
			}
			return rows, err
		})
		if !partial(err) {
			return fail(err)
		}
		if err := harness.RenderUnroll(stdout, rows); err != nil {
			return fail(err)
		}
	}

	if exitCode != 0 {
		fmt.Fprintln(stderr, "specrun: some workloads failed; results above are partial")
	}
	return exitCode
}

// timed runs fn, reporting its wall time to stderr.
func timed[T any](stderr io.Writer, name string, fn func() (T, error)) (T, error) {
	start := time.Now()
	out, err := fn()
	fmt.Fprintf(stderr, "specrun: %s took %v\n", name, time.Since(start).Round(time.Millisecond))
	return out, err
}
