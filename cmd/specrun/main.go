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
//	-branches         branch-prediction model sweep (extension E10)
//	-ablation-unroll  compiler loop-unrolling ablation (extension E7)
//
// The selected experiments other than -table1 and -ablation-unroll run as
// one plan: each workload is compiled, simulated and resolved once, and
// every experiment builds its rows from that one analysis. Output follows
// the order above whatever the flag order.
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
//	                  recomputing them — a workload whose rows are all in
//	                  F is not simulated — and output is identical to a
//	                  full run because workloads are deterministic
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
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
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

// section is one experiment of specrun's output: the flag that selects
// it, its title, the plan experiment it runs (nil for Table 1 and the
// ablation, which run outside the plan), a loader that decodes one of its
// rows from the autosave store, and its renderer, which gets the
// experiment's plan rows.
type section struct {
	flag, usage, title string
	exp                *harness.Experiment
	load               func(st *store, key string) (any, bool)
	render             func(rows []any) error
}

// experiment builds the section of a plan experiment whose rows are R. Its
// flag is the experiment's name, which also keys its rows in the autosave
// store.
func experiment[R any](usage, title string, exp *harness.Experiment, render func([]R) error) section {
	return section{flag: exp.Name, usage: usage, title: title, exp: exp,
		load:   func(st *store, key string) (any, bool) { return getCached[R](st, key) },
		render: func(rows []any) error { return render(harness.Rows[R](rows)) }}
}

// run is the testable entry point: it parses args, executes the selected
// experiments, and returns the process exit code (0 success, 1 any failure —
// including per-workload failures in keep-going mode — 2 usage error).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("specrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all = fs.Bool("all", false, "run every experiment")

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
	s := harness.NewSuite(1)
	var st *store
	writeFile := func(name string, write func(io.Writer) error) error {
		path := filepath.Join(*outDir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		return nil
	}
	sections := []section{
		{flag: "table1", usage: "print Table 1 (operation times)", title: "Table 1: Instruction Class Operation Times",
			render: func([]any) error { return harness.RenderTable1(stdout) }},
		experiment("run Table 2 (benchmark inventory)", "Table 2: Benchmarks Analyzed",
			harness.Table2Experiment(), func(rows []harness.Table2Row) error { return harness.RenderTable2(stdout, rows) }),
		experiment("run Table 3 (dataflow limits)", "Table 3: Dataflow Results (conservative vs optimistic system calls)",
			harness.Table3Experiment(), func(rows []harness.Table3Row) error { return harness.RenderTable3(stdout, rows) }),
		experiment("run Table 4 (renaming conditions)", "Table 4: Available Parallelism under Different Renaming Conditions",
			harness.Table4Experiment(), func(rows []harness.Table4Row) error { return harness.RenderTable4(stdout, rows) }),
		experiment("run Figure 7 (parallelism profiles)", "Figure 7: Parallelism Profiles",
			harness.Figure7Experiment(), func(profiles []harness.ProfileResult) error {
				if err := harness.RenderFigure7(stdout, profiles); err != nil || *outDir == "" {
					return err
				}
				for _, p := range profiles {
					if p.Err != "" {
						continue
					}
					if err := writeFile("fig7_"+p.Name+".csv", func(w io.Writer) error { return harness.WriteProfileCSV(w, p) }); err != nil {
						return err
					}
				}
				return nil
			}),
		experiment("run Figure 8 (window-size sweep)", "Figure 8: Window Size vs Percent of Total Available Parallelism",
			harness.Figure8Experiment(nil), func(series []harness.WindowSeries) error {
				if err := harness.RenderFigure8(stdout, series); err != nil || *outDir == "" {
					return err
				}
				return writeFile("fig8.csv", func(w io.Writer) error { return harness.WriteFigure8CSV(w, series) })
			}),
		experiment("run the functional-unit sweep (E8)", "Extension E8: Functional-Unit Limits",
			harness.FunctionalUnitsExperiment(nil), func(rows []harness.FURow) error { return harness.RenderFunctionalUnits(stdout, rows) }),
		experiment("run lifetime/sharing distributions (E9)", "Extension E9: Value Lifetimes and Degree of Sharing",
			harness.LifetimesExperiment(), func(rows []harness.LifetimeRow) error { return harness.RenderLifetimes(stdout, rows) }),
		experiment("run the branch-prediction sweep (E10)", "Extension E10: Branch-Prediction Models",
			harness.BranchPredictionExperiment(nil), func(rows []harness.BranchRow) error { return harness.RenderBranches(stdout, rows) }),
		{flag: "ablation-unroll", usage: "run the loop-unrolling ablation (E7)", title: "Extension E7: Compiler Loop-Unrolling Ablation",
			render: func([]any) error {
				// The ablation sweeps unroll factors over one workload, so it
				// caches as a single unit rather than per workload.
				key := "ablation/" + *ablWork
				rows, ok := getCached[[]harness.UnrollRow](st, key)
				if !ok {
					var err error
					if rows, err = s.AblationUnroll(ctx, *ablWork, nil); err != nil {
						return err
					}
					if st != nil {
						if err := st.put(key, rows); err != nil {
							return err
						}
					}
				}
				return harness.RenderUnroll(stdout, rows)
			}},
	}
	selected := make([]*bool, len(sections))
	for i, sec := range sections {
		selected[i] = fs.Bool(sec.flag, false, sec.usage)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The ablation's title names its workload, known only now.
	sections[len(sections)-1].title += " (" + *ablWork + ")"
	var picked []section
	var plan []*harness.Experiment
	for i, sec := range sections {
		if *all || *selected[i] {
			picked = append(picked, sec)
			if sec.exp != nil {
				plan = append(plan, sec.exp)
			}
		}
	}
	if len(picked) == 0 {
		fs.Usage()
		return 2
	}

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

	s.Scale = max(*scale, 1)
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

	// The plan runs through the autosave store when there is one: saved
	// rows are reused per (experiment, workload) pair, and each fresh row
	// is saved the moment its workload finishes, so a kill loses at most
	// the workloads still in flight. Failed rows are not saved, so a
	// -resume rerun retries them.
	var cached func(exp, workload string) (any, bool)
	var saveErr error
	if *autosave != "" {
		var err error
		st, err = openStore(*autosave, *resume)
		if err != nil {
			return fail(err)
		}
		defer st.close()
		var saveMu sync.Mutex
		cached = func(exp, workload string) (any, bool) {
			for _, sec := range picked {
				if sec.exp != nil && sec.exp.Name == exp {
					return sec.load(st, exp+"/"+workload)
				}
			}
			return nil, false
		}
		s.OnRow = func(exp string, _ int, workload string, row any) {
			if err := st.put(exp+"/"+workload, row); err != nil {
				saveMu.Lock()
				saveErr = cmp.Or(saveErr, err)
				saveMu.Unlock()
			}
		}
	}

	start := time.Now()
	exitCode := 0
	var rows [][]any
	if len(plan) > 0 {
		var err error
		rows, err = s.RunPlan(ctx, plan, cached)
		// A *SuiteError from a keep-going run is reported and remembered
		// in the exit code while the partial rows still render; any other
		// error is fatal.
		var se *harness.SuiteError
		switch {
		case errors.As(err, &se):
			fmt.Fprintln(stderr, "specrun:", err)
			exitCode = 1
		case err != nil:
			return fail(err)
		case saveErr != nil:
			return fail(saveErr)
		}
	}
	for _, sec := range picked {
		fmt.Fprintf(stdout, "\n== %s ==\n\n", sec.title)
		var secRows []any
		if sec.exp != nil {
			secRows, rows = rows[0], rows[1:]
		}
		if err := sec.render(secRows); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintf(stderr, "specrun: %d experiment(s) over %d workload(s) took %v\n",
		len(picked), len(s.Workloads), time.Since(start).Round(time.Millisecond))

	if exitCode != 0 {
		fmt.Fprintln(stderr, "specrun: some workloads failed; results above are partial")
	}
	return exitCode
}
