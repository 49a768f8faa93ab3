// Package harness reruns the paper's evaluation: it wires workloads
// (package workloads) through the CPU tracer (package cpu) into the
// Paragraph analyzer (package core) and reshapes the results into the rows
// and series of the paper's Tables 2-4 and Figures 7-8, plus the extension
// experiments documented in DESIGN.md (functional-unit limits, lifetime and
// sharing distributions, branch models, and the loop-unrolling ablation).
//
// Each per-workload experiment is a declaration (Experiment): a name, the
// analyzer configurations it needs, and one row builder. Suite.RunPlan runs
// any set of them as one plan. Per workload it takes the union of their
// configurations, merges those that differ only in the statistics they
// collect, and makes one AnalyzeMulti call, so the workload is compiled,
// simulated and resolved once however many experiments read it. Table2,
// Table3 and the other experiment methods are one-experiment plans.
//
// One simulated execution feeds any number of analyzer configurations. A
// single configuration streams events straight into its analyzer. More
// resolve the simulation's dependences once (core.Resolver) and schedule
// the resulting policy-free records under every configuration
// (FanOutResolved), holding memory proportional to configuration rather
// than trace length. The differential tests hold both engines to
// per-config sequential analyzers, and plans to one-experiment runs.
package harness

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/minic"
	"paragraph/internal/stats"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// Suite fixes the run parameters shared by every experiment.
type Suite struct {
	// Scale multiplies workload sizes; 1 is the test-friendly default.
	Scale int
	// MaxInstr caps the analyzed trace length per run, mirroring the
	// paper's 100M-instruction budget. 0 means run to completion.
	MaxInstr uint64
	// Unroll passes a loop-unrolling factor to the MiniC compiler
	// (used by the E7 ablation; 0 disables).
	Unroll int
	// Workloads lists the benchmarks to run; defaults to all ten.
	Workloads []*workloads.Workload
	// Parallelism bounds how many workloads run concurrently within one
	// plan; 0 selects GOMAXPROCS. Every workload's simulation and
	// analysis is independent, so plans parallelize perfectly.
	Parallelism int
	// Concurrency selects how a multi-configuration analysis schedules
	// over one workload's trace. At 1 every configuration is scheduled
	// inline on the goroutine that simulates and resolves; any other value
	// runs one scheduler goroutine per configuration (inline too on a
	// single-CPU runtime), so it is a switch, not a bound. Every setting
	// produces deeply-equal Results for the same inputs (the differential
	// tests enforce this).
	Concurrency int
	// ContinueOnError keeps a plan going when a workload fails: the
	// remaining workloads still run, every experiment's row for the failed
	// workload reports its error, and the plan returns a *SuiteError
	// listing every failure alongside the partial results. When false (the
	// default), the first failure aborts the plan. In both modes a
	// panicking workload is contained: it is recovered and reported as that
	// workload's error, never unwound through the caller.
	ContinueOnError bool
	// WorkloadTimeout bounds each workload's simulate+analyze wall-clock
	// time; a workload over budget fails with ErrWorkloadTimeout (with
	// context.DeadlineExceeded still in the error chain). 0 means no
	// limit. The timeout is implemented as a per-workload context
	// deadline, so it composes with whatever context the caller passes to
	// the experiment methods.
	WorkloadTimeout time.Duration
	// MemBudget bounds each analyzer's working set and, in a
	// multi-configuration analysis, the resolved engine's segment ring, in
	// estimated bytes; 0 disables governance (see core.Config.MemBudget).
	// The ring may spend at most half the budget. When even its minimum
	// depth does not fit under the Degrade policy, the suite falls back to
	// the streaming engine for that workload and records the downgrade in
	// every result's GovernorStats.
	MemBudget int64
	// BudgetPolicy selects the over-budget response (see
	// core.Config.BudgetPolicy). Ignored when MemBudget is 0.
	BudgetPolicy budget.Policy
	// GlobalMemBudget divides one budget across every workload running
	// concurrently within a plan, via a budget.Pool. Each admitted
	// workload's share bounds its whole analysis: the segment ring takes at
	// most half of it and the analyzers split the rest, each still capped
	// by MemBudget (smaller wins). Shares re-expand as workloads finish,
	// and effective Parallelism shrinks before any share drops below
	// budget.MinShare. 0 disables pooling, leaving MemBudget the only
	// limit.
	GlobalMemBudget int64
	// OnRow, when set, is called by RunPlan as each experiment's row for a
	// workload completes, with the experiment's name, the workload's index
	// and name, and the finished row value — the per-row autosave hook. It
	// may be called concurrently from workload goroutines and must be safe
	// for that; failed workloads and rows supplied by the plan's cache
	// produce no call.
	OnRow func(experiment string, index int, workload string, row any)
}

// NewSuite returns the default suite: all ten analogues at the given scale.
func NewSuite(scale int) *Suite {
	if scale < 1 {
		scale = 1
	}
	return &Suite{Scale: scale, Workloads: workloads.All()}
}

func (s *Suite) options() minic.Options {
	return minic.Options{Unroll: s.Unroll}
}

// effectiveMemBudget folds the suite's MemBudget with the budget.Pool
// share carried by a plan's per-workload context, the smaller winning. The
// resolved engine's segment ring may hold half of it.
func (s *Suite) effectiveMemBudget(ctx context.Context) int64 {
	b := s.MemBudget
	if share, ok := budget.ShareFromContext(ctx); ok && share > 0 && (b <= 0 || share < b) {
		b = share
	}
	return b
}

// budgeted stamps a memory budget onto every configuration that does not
// already carry its own, once ring bytes have gone to the segment ring:
// what the workload's budget.Pool share on ctx has left, split across the
// configurations and capped by MemBudget (the smaller limit wins), so a
// workload's whole analysis commits no more than its share.
func (s *Suite) budgeted(ctx context.Context, cfgs []core.Config, ring int64) []core.Config {
	b := s.MemBudget
	if share, ok := budget.ShareFromContext(ctx); ok && share > 0 {
		if split := max((share-ring)/int64(len(cfgs)), 1); b <= 0 || split < b {
			b = split
		}
	}
	if b <= 0 {
		return cfgs
	}
	out := slices.Clone(cfgs)
	for i := range out {
		if out[i].MemBudget == 0 {
			out[i].MemBudget = b
			out[i].BudgetPolicy = s.BudgetPolicy
		}
	}
	return out
}

// AnalyzeMulti executes one workload once and runs every analyzer
// configuration over the same trace. A single configuration streams
// events straight into its analyzer. With more, the simulation's
// dependences are resolved once and the policy-free records scheduled
// under every configuration (see FanOutResolved) — whatever the mix of
// syscall policies, renaming, windows or units — with memory a function of
// configuration, not trace length. Both engines return deeply-equal
// Results indexed by configuration, and errors name the caller's
// configuration index; the differential battery enforces it.
//
// Cancelling ctx aborts simulation and analysis within one guard stride
// (guardEvery events); Suite.WorkloadTimeout expiry surfaces as
// ErrWorkloadTimeout with context.DeadlineExceeded in the chain. Memory
// governance follows MemBudget and any budget.Pool share on ctx (see
// effectiveMemBudget and budgeted). Under the Degrade policy, a budget too
// small for the resolved engine's minimum segment ring re-simulates the
// workload on the streaming engine instead, marking EngineDowngraded in
// every result's GovernorStats.
func (s *Suite) AnalyzeMulti(ctx context.Context, w *workloads.Workload, cfgs []core.Config) ([]*core.Result, error) {
	rs, _, err := s.analyze(ctx, w, cfgs)
	return rs, err
}

// analyze is AnalyzeMulti that also returns the simulation's RunResult;
// with no configurations it only simulates.
func (s *Suite) analyze(ctx context.Context, w *workloads.Workload, cfgs []core.Config) ([]*core.Result, *workloads.RunResult, error) {
	wctx, cancel := s.workloadContext(ctx)
	defer cancel()
	switch len(cfgs) {
	case 0:
		run, err := w.Run(s.Scale, s.options(), guardSink(wctx, nil), s.MaxInstr)
		return nil, run, err
	case 1:
		return s.analyzeStreaming(wctx, w, s.budgeted(wctx, cfgs, 0))
	}
	return s.analyzeResolved(wctx, w, cfgs)
}

// analyzeStreaming is the single-configuration engine, and the fallback
// when the resolved engine's segment ring cannot fit the memory budget:
// one simulation pass feeds every analyzer in lockstep through trace.Tee,
// with no intermediate buffer.
func (s *Suite) analyzeStreaming(ctx context.Context, w *workloads.Workload, cfgs []core.Config) ([]*core.Result, *workloads.RunResult, error) {
	analyzers := make([]*core.Analyzer, len(cfgs))
	sinks := make([]trace.Sink, len(cfgs))
	for i, cfg := range cfgs {
		analyzers[i] = core.NewAnalyzer(cfg)
		sinks[i] = analyzers[i]
	}
	sink := guardSink(ctx, trace.Tee(sinks...))
	run, err := w.Run(s.Scale, s.options(), sink, s.MaxInstr)
	if err != nil {
		return nil, nil, err
	}
	results := make([]*core.Result, len(cfgs))
	for i, a := range analyzers {
		r, err := a.Finish()
		if err != nil {
			return nil, nil, fmt.Errorf("config %d: %w", i, err)
		}
		results[i] = r
	}
	return results, run, nil
}

// Analyze runs a single configuration.
func (s *Suite) Analyze(ctx context.Context, w *workloads.Workload, cfg core.Config) (*core.Result, error) {
	rs, err := s.AnalyzeMulti(ctx, w, []core.Config{cfg})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// Experiment declares one per-workload experiment for RunPlan.
type Experiment struct {
	// Name keys the experiment's rows, e.g. in OnRow and in specrun's
	// autosave store ("<Name>/<workload>").
	Name string
	// Configs are analyzed for every workload; none means the experiment
	// reads only the simulation (Table 2).
	Configs []core.Config
	// Row builds one workload's row from its simulation and the results of
	// Configs, in order. When err is non-nil the workload failed, and Row
	// builds the failed row, which names the workload and carries err.
	Row func(w *workloads.Workload, run *workloads.RunResult, rs []*core.Result, err error) any
}

// RunPlan runs every experiment in exps over the suite's workloads as one
// plan and returns rows[e][i], experiment e's row for workload i. Per
// workload it takes the union of the experiments' configurations, merges
// configurations that differ only in the statistics they collect (Profile,
// Lifetimes, Sharing) into one that collects every statistic any of them
// asks for, and makes one AnalyzeMulti call whose results every
// experiment builds its row from.
//
// cached, when set, returns a row an earlier run already finished for an
// (experiment, workload) pair: the plan uses it instead of recomputing,
// analyzes a workload only under the configurations of its missing
// experiments, and does not simulate a workload whose rows are all cached.
//
// Workloads run concurrently up to Parallelism, each under panic recovery,
// so one broken workload cannot take down the plan. A failed workload
// fails every experiment that needed it, and each builds its failed row.
// Without ContinueOnError the lowest-indexed failure is returned as a
// *WorkloadError and no further workloads are launched once a failure is
// observed (their rows stay nil); with it, every workload runs and all
// failures are aggregated into a *SuiteError. Cancelling ctx stops
// launching new workloads in either mode — a cancellation is user intent,
// which ContinueOnError does not override — and the workloads in flight
// abort promptly through their guards.
//
// Under GlobalMemBudget each workload runs on its byte share of a
// budget.Pool, carried on its context (budget.WithShare); the pool may
// shrink the effective parallelism so no share drops below
// budget.MinShare, and shares re-expand as workloads finish.
func (s *Suite) RunPlan(ctx context.Context, exps []*Experiment, cached func(experiment, workload string) (any, bool)) ([][]any, error) {
	rows := make([][]any, len(exps))
	for e := range rows {
		rows[e] = make([]any, len(s.Workloads))
	}
	plan := func(ctx context.Context, i int, w *workloads.Workload) error {
		var todo []int
		for e, x := range exps {
			if cached != nil {
				if row, ok := cached(x.Name, w.Name); ok {
					rows[e][i] = row
					continue
				}
			}
			todo = append(todo, e)
		}
		if len(todo) == 0 {
			return nil
		}
		cfgs, index := planConfigs(exps, todo)
		rs, run, err := s.analyze(ctx, w, cfgs)
		if err != nil {
			return err
		}
		for k, e := range todo {
			mine := make([]*core.Result, len(index[k]))
			for j, u := range index[k] {
				mine[j] = rs[u]
			}
			rows[e][i] = exps[e].Row(w, run, mine, nil)
			if s.OnRow != nil {
				s.OnRow(exps[e].Name, i, w.Name, rows[e][i])
			}
		}
		return nil
	}

	limit := s.Parallelism
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	limit = max(min(limit, len(s.Workloads)), 1)
	var pool *budget.Pool
	if s.GlobalMemBudget > 0 {
		pool = budget.NewPool(s.GlobalMemBudget, limit)
		limit = min(limit, pool.Parallelism())
	}
	var completed atomic.Int64
	run := func(i int, w *workloads.Workload) (werr *WorkloadError) {
		defer func() {
			if v := recover(); v != nil {
				werr = &WorkloadError{Index: i, Workload: w.Name, Err: fmt.Errorf("%v", v), Panicked: true}
			}
		}()
		defer completed.Add(1)
		wctx := ctx
		if pool != nil {
			share, release := pool.Acquire(max(len(s.Workloads)-int(completed.Load()), 1))
			defer release()
			wctx = budget.WithShare(ctx, share)
		}
		if err := plan(wctx, i, w); err != nil {
			return &WorkloadError{Index: i, Workload: w.Name, Err: err}
		}
		return nil
	}
	failures := make([]*WorkloadError, len(s.Workloads))
	var wg sync.WaitGroup
	var failed atomic.Bool
	sem := make(chan struct{}, limit)
	for i, w := range s.Workloads {
		// Launches wait for a slot before checking for failures, so a
		// fail-fast plan at Parallelism 1 runs nothing after a failure,
		// and at any parallelism the lowest-indexed failure — the one
		// reported — is among the workloads launched.
		sem <- struct{}{}
		if ctx.Err() != nil || (!s.ContinueOnError && failed.Load()) {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if failures[i] = run(i, w); failures[i] != nil {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()

	var collected []*WorkloadError
	for _, f := range failures {
		if f == nil {
			continue
		}
		collected = append(collected, f)
		for e, x := range exps {
			if rows[e][f.Index] == nil {
				rows[e][f.Index] = x.Row(s.Workloads[f.Index], nil, nil, f.Err)
			}
		}
	}
	switch {
	case len(collected) == 0 && ctx.Err() != nil:
		// Cancelled before any workload could fail (e.g. between
		// launches): surface the cancellation itself.
		return rows, fmt.Errorf("harness: experiment canceled: %w", ctx.Err())
	case len(collected) == 0:
		return rows, nil
	case !s.ContinueOnError:
		return rows, collected[0]
	}
	return rows, &SuiteError{Total: len(s.Workloads), Failures: collected}
}

// planConfigs returns the union of the configurations of exps[todo...],
// configurations that differ only in collected statistics merged into one,
// and index[k][j], the union position of exps[todo[k]].Configs[j].
func planConfigs(exps []*Experiment, todo []int) (union []core.Config, index [][]int) {
	index = make([][]int, len(todo))
	for k, e := range todo {
		for _, c := range exps[e].Configs {
			j := slices.IndexFunc(union, func(u core.Config) bool { return sameSchedule(u, c) })
			if j < 0 {
				j = len(union)
				union = append(union, c)
			}
			u := &union[j]
			u.Profile = u.Profile || c.Profile
			u.Lifetimes = u.Lifetimes || c.Lifetimes
			u.Sharing = u.Sharing || c.Sharing
			index[k] = append(index[k], j)
		}
	}
	return union, index
}

// sameSchedule reports whether a and b differ at most in the statistics
// they collect, so one schedule can serve both.
func sameSchedule(a, b core.Config) bool {
	a.Profile, a.Lifetimes, a.Sharing = b.Profile, b.Lifetimes, b.Sharing
	return reflect.DeepEqual(a, b)
}

// Rows converts one experiment's plan rows to its row type R; a nil row (a
// workload a fail-fast plan never reached) becomes R's zero value.
func Rows[R any](rows []any) []R {
	out := make([]R, len(rows))
	for i, r := range rows {
		if r != nil {
			out[i] = r.(R)
		}
	}
	return out
}

// runOne runs a one-experiment plan.
func runOne[R any](ctx context.Context, s *Suite, x *Experiment) ([]R, error) {
	rows, err := s.RunPlan(ctx, []*Experiment{x}, nil)
	return Rows[R](rows[0]), err
}

// dataflow is the paper's upper-bound configuration without a profile:
// conservative system calls, full renaming, unlimited window and units.
func dataflow() core.Config {
	cfg := core.Dataflow(core.SyscallConservative)
	cfg.Profile = false
	return cfg
}

// Table2Row is one row of the paper's Table 2 (benchmark inventory).
type Table2Row struct {
	Name         string
	Original     string
	Language     string
	BenchType    string
	Instructions uint64
	Output       string
	// Err is the workload's failure, when it has one; the rest of the row
	// is then meaningless. Only populated under ContinueOnError.
	Err string
}

// Table2Experiment is the benchmark inventory: it reads only the
// simulation.
func Table2Experiment() *Experiment {
	return &Experiment{Name: "table2", Row: func(w *workloads.Workload, run *workloads.RunResult, _ []*core.Result, err error) any {
		if err != nil {
			return Table2Row{Name: w.Name, Original: w.Original, Err: err.Error()}
		}
		return Table2Row{Name: w.Name, Original: w.Original, Language: w.Language, BenchType: w.BenchType,
			Instructions: run.Instructions, Output: run.Output}
	}}
}

// Table2 runs every workload (without analysis) and reports the inventory.
func (s *Suite) Table2(ctx context.Context) ([]Table2Row, error) {
	return runOne[Table2Row](ctx, s, Table2Experiment())
}

// Table3Row is one row of the paper's Table 3 (dataflow limit under the
// two system-call assumptions).
type Table3Row struct {
	Name             string
	Syscalls         uint64
	ConsCriticalPath int64
	ConsAvailable    float64
	OptCriticalPath  int64
	OptAvailable     float64
	// MaxError is the paper's "Maximum Measurement Error":
	// (optimistic - conservative) / optimistic.
	MaxError float64
	// Err is the workload's failure, when it has one; the metric columns
	// are then meaningless. Only populated under ContinueOnError.
	Err string
}

// Table3Experiment is Table 3: full renaming, unlimited window and
// functional units, conservative vs optimistic system calls.
func Table3Experiment() *Experiment {
	opt := dataflow()
	opt.Syscalls = core.SyscallOptimistic
	return &Experiment{Name: "table3", Configs: []core.Config{dataflow(), opt},
		Row: func(w *workloads.Workload, _ *workloads.RunResult, rs []*core.Result, err error) any {
			if err != nil {
				return Table3Row{Name: w.Name, Err: err.Error()}
			}
			cons, opt := rs[0], rs[1]
			row := Table3Row{
				Name:             w.Name,
				Syscalls:         cons.Syscalls,
				ConsCriticalPath: cons.CriticalPath,
				ConsAvailable:    cons.Available,
				OptCriticalPath:  opt.CriticalPath,
				OptAvailable:     opt.Available,
			}
			if opt.Available > 0 {
				row.MaxError = (opt.Available - cons.Available) / opt.Available
			}
			return row
		}}
}

// Table3 reproduces Table 3 (see Table3Experiment).
func (s *Suite) Table3(ctx context.Context) ([]Table3Row, error) {
	return runOne[Table3Row](ctx, s, Table3Experiment())
}

// ProfileResult is one benchmark's Figure-7 parallelism profile.
type ProfileResult struct {
	Name         string
	Profile      []stats.ProfilePoint
	BucketWidth  int64
	CriticalPath int64
	Available    float64
	PeakOps      float64
	// Err is the workload's failure, when it has one.
	Err string
}

// Figure7Experiment is the parallelism profiles: conservative system
// calls, full renaming, whole-trace window.
func Figure7Experiment() *Experiment {
	return &Experiment{Name: "fig7", Configs: []core.Config{core.Dataflow(core.SyscallConservative)},
		Row: func(w *workloads.Workload, _ *workloads.RunResult, rs []*core.Result, err error) any {
			if err != nil {
				return ProfileResult{Name: w.Name, Err: err.Error()}
			}
			r := rs[0]
			return ProfileResult{Name: w.Name, Profile: r.Profile, BucketWidth: r.ProfileBucketWidth,
				CriticalPath: r.CriticalPath, Available: r.Available, PeakOps: r.PeakOps}
		}}
}

// Figure7 reproduces the parallelism profiles (see Figure7Experiment).
func (s *Suite) Figure7(ctx context.Context) ([]ProfileResult, error) {
	return runOne[ProfileResult](ctx, s, Figure7Experiment())
}

// Table4Row is one row of the paper's Table 4 (renaming conditions).
type Table4Row struct {
	Name       string
	NoRenaming float64
	Regs       float64
	RegsStack  float64
	RegsMem    float64
	// Err is the workload's failure, when it has one. Only populated
	// under ContinueOnError.
	Err string
}

// Table4Experiment is Table 4: available parallelism under the four
// renaming conditions, conservative system calls, whole-trace window, no
// functional unit limits.
func Table4Experiment() *Experiment {
	return &Experiment{Name: "table4", Configs: []core.Config{
		{Syscalls: core.SyscallConservative},
		{Syscalls: core.SyscallConservative, RenameRegisters: true},
		{Syscalls: core.SyscallConservative, RenameRegisters: true, RenameStack: true},
		{Syscalls: core.SyscallConservative, RenameRegisters: true, RenameStack: true, RenameData: true},
	}, Row: func(w *workloads.Workload, _ *workloads.RunResult, rs []*core.Result, err error) any {
		if err != nil {
			return Table4Row{Name: w.Name, Err: err.Error()}
		}
		return Table4Row{Name: w.Name, NoRenaming: rs[0].Available, Regs: rs[1].Available,
			RegsStack: rs[2].Available, RegsMem: rs[3].Available}
	}}
}

// Table4 reproduces Table 4 (see Table4Experiment).
func (s *Suite) Table4(ctx context.Context) ([]Table4Row, error) {
	return runOne[Table4Row](ctx, s, Table4Experiment())
}

// DefaultWindowSizes is the Figure-8 sweep: powers of two from 1 to 2^20,
// then 0 (the whole trace).
func DefaultWindowSizes() []int {
	sizes := []int{1}
	for w := 2; w <= 1<<20; w *= 2 {
		sizes = append(sizes, w)
	}
	return append(sizes, 0)
}

// WindowPoint is one point of a Figure-8 series.
type WindowPoint struct {
	Window    int // 0 = whole trace
	Available float64
	// Percent is available parallelism as a percentage of the
	// whole-trace ("total available") parallelism.
	Percent float64
}

// WindowSeries is one benchmark's Figure-8 curve.
type WindowSeries struct {
	Name   string
	Points []WindowPoint
	// Err is the workload's failure, when it has one; Points is then
	// empty.
	Err string
}

// Figure8Experiment is the window-size sweep: conservative system calls,
// full renaming, no functional-unit limits, window sizes as given (nil
// selects DefaultWindowSizes, the paper's log-scale axis).
func Figure8Experiment(sizes []int) *Experiment {
	if len(sizes) == 0 {
		sizes = DefaultWindowSizes()
	}
	cfgs := make([]core.Config, len(sizes))
	for i, size := range sizes {
		cfgs[i] = dataflow()
		cfgs[i].WindowSize = size
	}
	return &Experiment{Name: "fig8", Configs: cfgs, Row: func(w *workloads.Workload, _ *workloads.RunResult, rs []*core.Result, err error) any {
		if err != nil {
			return WindowSeries{Name: w.Name, Err: err.Error()}
		}
		var total float64
		for i, size := range sizes {
			if size == 0 {
				total = rs[i].Available
			}
		}
		if total == 0 {
			// No whole-trace point requested; normalize against the
			// largest window.
			for _, r := range rs {
				total = max(total, r.Available)
			}
		}
		series := WindowSeries{Name: w.Name}
		for i, size := range sizes {
			pt := WindowPoint{Window: size, Available: rs[i].Available}
			if total > 0 {
				pt.Percent = rs[i].Available / total * 100
			}
			series.Points = append(series.Points, pt)
		}
		return series
	}}
}

// Figure8 reproduces the window-size sweep (see Figure8Experiment).
func (s *Suite) Figure8(ctx context.Context, sizes []int) ([]WindowSeries, error) {
	return runOne[WindowSeries](ctx, s, Figure8Experiment(sizes))
}

// FURow is one row of the functional-unit extension experiment (E8).
type FURow struct {
	Name   string
	Limits []int
	Avail  []float64
	// Err is the workload's failure, when it has one.
	Err string
}

// FunctionalUnitsExperiment sweeps generic functional-unit counts (Figure
// 4's resource dependencies, quantified): full renaming, conservative
// syscalls. nil limits select 1 to 64 units and unlimited.
func FunctionalUnitsExperiment(limits []int) *Experiment {
	if len(limits) == 0 {
		limits = []int{1, 2, 4, 8, 16, 32, 64, 0}
	}
	cfgs := make([]core.Config, len(limits))
	for i, f := range limits {
		cfgs[i] = dataflow()
		cfgs[i].FunctionalUnits = f
	}
	return &Experiment{Name: "fus", Configs: cfgs, Row: func(w *workloads.Workload, _ *workloads.RunResult, rs []*core.Result, err error) any {
		if err != nil {
			return FURow{Name: w.Name, Err: err.Error()}
		}
		row := FURow{Name: w.Name, Limits: limits}
		for _, r := range rs {
			row.Avail = append(row.Avail, r.Available)
		}
		return row
	}}
}

// FunctionalUnits runs the E8 sweep (see FunctionalUnitsExperiment).
func (s *Suite) FunctionalUnits(ctx context.Context, limits []int) ([]FURow, error) {
	return runOne[FURow](ctx, s, FunctionalUnitsExperiment(limits))
}

// LifetimeRow carries the E9 extension distributions for one benchmark.
type LifetimeRow struct {
	Name          string
	Lifetimes     stats.LogDist
	Sharing       stats.LogDist
	MaxLiveMemory int
	// Err is the workload's failure, when it has one.
	Err string
}

// LifetimesExperiment collects value-lifetime and degree-of-sharing
// distributions (Section 2.3's "distribution of value lifetimes" and
// "degree of sharing of each computed value").
func LifetimesExperiment() *Experiment {
	cfg := dataflow()
	cfg.Lifetimes, cfg.Sharing = true, true
	return &Experiment{Name: "lifetimes", Configs: []core.Config{cfg},
		Row: func(w *workloads.Workload, _ *workloads.RunResult, rs []*core.Result, err error) any {
			if err != nil {
				return LifetimeRow{Name: w.Name, Err: err.Error()}
			}
			return LifetimeRow{Name: w.Name, Lifetimes: rs[0].Lifetimes, Sharing: rs[0].Sharing,
				MaxLiveMemory: rs[0].MaxLiveMemoryWords}
		}}
}

// Lifetimes runs the E9 distributions (see LifetimesExperiment).
func (s *Suite) Lifetimes(ctx context.Context) ([]LifetimeRow, error) {
	return runOne[LifetimeRow](ctx, s, LifetimesExperiment())
}

// UnrollRow is one row of the E7 compiler ablation.
type UnrollRow struct {
	Name          string
	Factor        int
	Instructions  uint64
	Available     float64
	AvailRegsOnly float64
}

// AblationUnroll measures the compiler's second-order effect (Section
// 3.1's caveat): the same workload compiled with and without loop
// unrolling, analyzed under full renaming and under register-only
// renaming (where loop-counter recurrences matter most). Each factor
// compiles a different program, so it is not a plan experiment: every
// factor gets its own simulation.
func (s *Suite) AblationUnroll(ctx context.Context, name string, factors []int) ([]UnrollRow, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", name)
	}
	if len(factors) == 0 {
		factors = []int{1, 2, 4, 8}
	}
	var rows []UnrollRow
	for _, f := range factors {
		sub := *s
		sub.Unroll = f
		regsOnly := core.Config{Syscalls: core.SyscallConservative, RenameRegisters: true}
		rs, err := sub.AnalyzeMulti(ctx, w, []core.Config{dataflow(), regsOnly})
		if err != nil {
			return nil, err
		}
		rows = append(rows, UnrollRow{
			Name:          name,
			Factor:        f,
			Instructions:  rs[0].Instructions,
			Available:     rs[0].Available,
			AvailRegsOnly: rs[1].Available,
		})
	}
	return rows, nil
}

// BranchRow is one row of the branch-prediction extension experiment
// (E10): available parallelism under each control-dependency model, plus
// the modelled misprediction rates.
type BranchRow struct {
	Name     string
	Policies []core.BranchPolicy
	Avail    []float64
	MissRate []float64 // mispredictions / branches, per policy
	// Err is the workload's failure, when it has one.
	Err string
}

// BranchPredictionExperiment sweeps the control-dependency models (nil selects
// stall, static BTFN, two-bit and perfect), quantifying Section 3.2's
// observation that the firewall can model mispredicted branches. Renaming
// is full and windows unlimited, so control is the only constraint varied.
func BranchPredictionExperiment(policies []core.BranchPolicy) *Experiment {
	if len(policies) == 0 {
		policies = []core.BranchPolicy{
			core.BranchStall, core.BranchStatic, core.BranchTwoBit, core.BranchPerfect,
		}
	}
	cfgs := make([]core.Config, len(policies))
	for i, p := range policies {
		cfgs[i] = dataflow()
		cfgs[i].Branches = p
	}
	return &Experiment{Name: "branches", Configs: cfgs, Row: func(w *workloads.Workload, _ *workloads.RunResult, rs []*core.Result, err error) any {
		if err != nil {
			return BranchRow{Name: w.Name, Err: err.Error()}
		}
		row := BranchRow{Name: w.Name, Policies: policies}
		for _, r := range rs {
			row.Avail = append(row.Avail, r.Available)
			rate := 0.0
			if r.Branches > 0 {
				rate = float64(r.Mispredictions) / float64(r.Branches)
			}
			row.MissRate = append(row.MissRate, rate)
		}
		return row
	}}
}

// BranchPrediction runs the E10 sweep (see BranchPredictionExperiment).
func (s *Suite) BranchPrediction(ctx context.Context, policies []core.BranchPolicy) ([]BranchRow, error) {
	return runOne[BranchRow](ctx, s, BranchPredictionExperiment(policies))
}

// Table1Row describes one instruction latency class (the paper's Table 1).
type Table1Row struct {
	Class string
	Steps int
}

// Table1 returns the operation-time table; it is configuration, not
// measurement, but cmd/specrun prints it for completeness.
func Table1() []Table1Row {
	return []Table1Row{
		{"Integer ALU", 1},
		{"Integer Multiply", 6},
		{"Integer Division", 12},
		{"Floating Point Add/Sub", 6},
		{"Floating Point Multiply", 6},
		{"Floating Point Division", 12},
		{"Load/Store", 1},
		{"System Calls", 1},
	}
}
