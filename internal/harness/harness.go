// Package harness reruns the paper's evaluation: it wires workloads
// (package workloads) through the CPU tracer (package cpu) into the
// Paragraph analyzer (package core) and reshapes the results into the rows
// and series of the paper's Tables 2-4 and Figures 7-8, plus the extension
// experiments documented in DESIGN.md (functional-unit limits, lifetime and
// sharing distributions, and the loop-unrolling ablation).
//
// One simulated execution feeds any number of analyzer configurations. A
// single configuration streams events straight into its analyzer. More
// resolve the simulation's dependences once (core.Resolver) and schedule
// the resulting policy-free records under every configuration
// (FanOutResolved), so a whole syscall, renaming or window sweep costs a
// single simulation and a single resolution per workload and holds memory
// proportional to configuration rather than trace length. The
// differential tests hold both engines to per-config sequential analyzers.
package harness

import (
	"context"
	"fmt"
	"runtime"
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
	// experiment; 0 selects GOMAXPROCS. Every workload's simulation and
	// analysis is independent, so experiments parallelize perfectly.
	Parallelism int
	// Concurrency selects how a multi-configuration analysis schedules
	// over one workload's trace. At 1 every configuration is scheduled
	// inline on the goroutine that simulates and resolves; any other value
	// runs one scheduler goroutine per configuration (inline too on a
	// single-CPU runtime), so it is a switch, not a bound. Every setting
	// produces deeply-equal Results for the same inputs (the differential
	// tests enforce this).
	Concurrency int
	// ContinueOnError keeps an experiment going when a workload fails:
	// the remaining workloads still run, the failed row reports its error,
	// and the experiment returns a *SuiteError listing every failure
	// alongside the partial results. When false (the default), the first
	// failure aborts the experiment. In both modes a panicking workload is
	// contained: it is recovered and reported as that workload's error,
	// never unwound through the caller.
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
	// concurrently within an experiment, via a budget.Pool: each admitted
	// workload analyzes under its share (folded with MemBudget, smaller
	// wins), shares re-expand as workloads finish, and effective
	// Parallelism shrinks before any share drops below budget.MinShare. 0
	// disables pooling; MemBudget then applies per workload as before.
	GlobalMemBudget int64
	// OnRow, when set, is called by the experiment drivers as each
	// workload's result row completes, with the workload's index and name
	// and the finished row value — the per-row autosave hook. It may be
	// called concurrently from workload goroutines and must be safe for
	// that; failed workloads produce no call.
	OnRow func(index int, workload string, row any)
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

// forEachWorkload runs fn once per suite workload, concurrently up to the
// suite's parallelism bound, preserving result order. Each invocation runs
// under panic recovery, so one broken workload cannot take down the
// experiment. Without ContinueOnError the lowest-indexed failure is
// returned (as a *WorkloadError) and no further workloads are launched once
// a failure is observed — in serial and parallel mode alike; with it, every
// workload runs and all failures are aggregated into a *SuiteError.
//
// fn receives a per-workload context. Under GlobalMemBudget it carries the
// workload's byte share of the pooled budget (budget.WithShare), which
// AnalyzeMulti folds into its effective MemBudget; the pool may also
// shrink the effective parallelism so no share drops below
// budget.MinShare, and shares re-expand as workloads finish.
//
// Cancelling ctx stops launching new workloads in either mode — a
// cancellation is user intent, which ContinueOnError does not override —
// and the workloads already in flight abort promptly through their guards.
func (s *Suite) forEachWorkload(ctx context.Context, fn func(ctx context.Context, i int, w *workloads.Workload) error) error {
	limit := s.Parallelism
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	if limit > len(s.Workloads) {
		limit = len(s.Workloads)
	}
	var pool *budget.Pool
	if s.GlobalMemBudget > 0 {
		pool = budget.NewPool(s.GlobalMemBudget, limit)
		if p := pool.Parallelism(); p < limit {
			limit = p
		}
	}
	var completed atomic.Int64
	run := func(i int, w *workloads.Workload) (werr *WorkloadError) {
		defer func() {
			if v := recover(); v != nil {
				werr = &WorkloadError{Index: i, Workload: w.Name,
					Err: fmt.Errorf("%v", v), Panicked: true}
			}
		}()
		defer completed.Add(1)
		wctx := ctx
		if pool != nil {
			remaining := len(s.Workloads) - int(completed.Load())
			if remaining < 1 {
				remaining = 1
			}
			share, release := pool.Acquire(remaining)
			defer release()
			wctx = budget.WithShare(ctx, share)
		}
		if err := fn(wctx, i, w); err != nil {
			return &WorkloadError{Index: i, Workload: w.Name, Err: err}
		}
		return nil
	}
	failures := make([]*WorkloadError, len(s.Workloads))
	if limit <= 1 {
		for i, w := range s.Workloads {
			if ctx.Err() != nil {
				break
			}
			failures[i] = run(i, w)
			if failures[i] != nil && !s.ContinueOnError {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		var failed atomic.Bool
		sem := make(chan struct{}, limit)
		for i, w := range s.Workloads {
			if ctx.Err() != nil {
				break
			}
			if !s.ContinueOnError && failed.Load() {
				// Fail-fast: a failure has been observed, so stop
				// launching. Workloads already in flight complete, and
				// because launches happen in index order, the
				// lowest-indexed failure — the one reported — is always
				// among them.
				break
			}
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				failures[i] = run(i, w)
				if failures[i] != nil {
					failed.Store(true)
				}
			}()
		}
		wg.Wait()
	}
	var collected []*WorkloadError
	for _, f := range failures {
		if f != nil {
			collected = append(collected, f)
		}
	}
	if len(collected) == 0 {
		if err := ctx.Err(); err != nil {
			// Cancelled before any workload could fail (e.g. between
			// launches): surface the cancellation itself.
			return fmt.Errorf("harness: experiment canceled: %w", err)
		}
		return nil
	}
	if !s.ContinueOnError {
		return collected[0]
	}
	return &SuiteError{Total: len(s.Workloads), Failures: collected}
}

// applyBudget stamps a memory budget onto every configuration that does
// not already carry its own.
func (s *Suite) applyBudget(cfgs []core.Config, memBudget int64) []core.Config {
	if memBudget <= 0 {
		return cfgs
	}
	out := make([]core.Config, len(cfgs))
	for i, c := range cfgs {
		if c.MemBudget == 0 {
			c.MemBudget = memBudget
			c.BudgetPolicy = s.BudgetPolicy
		}
		out[i] = c
	}
	return out
}

// effectiveMemBudget folds the suite's per-workload MemBudget with the
// budget.Pool share carried by a forEachWorkload context, the smaller
// winning — a workload never analyzes under more memory than its slice of
// the global budget allows.
func (s *Suite) effectiveMemBudget(ctx context.Context) int64 {
	b := s.MemBudget
	if share, ok := budget.ShareFromContext(ctx); ok && share > 0 {
		if b <= 0 || share < b {
			b = share
		}
	}
	return b
}

// emitRow hands a completed result row to the OnRow autosave hook.
func (s *Suite) emitRow(i int, workload string, row any) {
	if s.OnRow != nil {
		s.OnRow(i, workload, row)
	}
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
// ErrWorkloadTimeout with context.DeadlineExceeded in the chain. The
// workload's effective memory budget is MemBudget folded with any
// budget.Pool share on ctx (smaller wins). Under the Degrade policy, a
// budget too small for the resolved engine's minimum segment ring
// re-simulates the workload on the streaming engine instead, marking
// EngineDowngraded in every result's GovernorStats.
func (s *Suite) AnalyzeMulti(ctx context.Context, w *workloads.Workload, cfgs []core.Config) ([]*core.Result, error) {
	memBudget := s.effectiveMemBudget(ctx)
	cfgs = s.applyBudget(cfgs, memBudget)
	wctx, cancel := s.workloadContext(ctx)
	defer cancel()
	if len(cfgs) == 1 {
		return s.analyzeStreaming(wctx, w, cfgs)
	}
	return s.analyzeResolved(wctx, w, cfgs, memBudget)
}

// analyzeStreaming is the single-configuration engine, and the fallback
// when the resolved engine's segment ring cannot fit the memory budget:
// one simulation pass feeds every analyzer in lockstep through trace.Tee,
// with no intermediate buffer.
func (s *Suite) analyzeStreaming(ctx context.Context, w *workloads.Workload, cfgs []core.Config) ([]*core.Result, error) {
	analyzers := make([]*core.Analyzer, len(cfgs))
	sinks := make([]trace.Sink, len(cfgs))
	for i, cfg := range cfgs {
		analyzers[i] = core.NewAnalyzer(cfg)
		sinks[i] = analyzers[i]
	}
	sink := guardSink(ctx, trace.Tee(sinks...))
	if _, err := w.Run(s.Scale, s.options(), sink, s.MaxInstr); err != nil {
		return nil, err
	}
	results := make([]*core.Result, len(cfgs))
	for i, a := range analyzers {
		r, err := a.Finish()
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		results[i] = r
	}
	return results, nil
}

// Analyze runs a single configuration.
func (s *Suite) Analyze(ctx context.Context, w *workloads.Workload, cfg core.Config) (*core.Result, error) {
	rs, err := s.AnalyzeMulti(ctx, w, []core.Config{cfg})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
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

// Table2 runs every workload (without analysis) and reports the inventory.
func (s *Suite) Table2(ctx context.Context) ([]Table2Row, error) {
	rows := make([]Table2Row, len(s.Workloads))
	err := s.forEachWorkload(ctx, func(ctx context.Context, i int, w *workloads.Workload) error {
		wctx, cancel := s.workloadContext(ctx)
		defer cancel()
		res, err := w.Run(s.Scale, s.options(), guardSink(wctx, nil), s.MaxInstr)
		if err != nil {
			return err
		}
		rows[i] = Table2Row{
			Name:         w.Name,
			Original:     w.Original,
			Language:     w.Language,
			BenchType:    w.BenchType,
			Instructions: res.Instructions,
			Output:       res.Output,
		}
		s.emitRow(i, w.Name, rows[i])
		return nil
	})
	markFailures(err, func(i int, msg string) {
		rows[i].Name = s.Workloads[i].Name
		rows[i].Original = s.Workloads[i].Original
		rows[i].Err = msg
	})
	return rows, err
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

// Table3 reproduces Table 3: full renaming, unlimited window and
// functional units, conservative vs optimistic system calls.
func (s *Suite) Table3(ctx context.Context) ([]Table3Row, error) {
	cfgs := []core.Config{
		core.Dataflow(core.SyscallConservative),
		core.Dataflow(core.SyscallOptimistic),
	}
	// The profile is not needed for the table itself.
	cfgs[0].Profile = false
	cfgs[1].Profile = false
	rows := make([]Table3Row, len(s.Workloads))
	err := s.forEachWorkload(ctx, func(ctx context.Context, i int, w *workloads.Workload) error {
		rs, err := s.AnalyzeMulti(ctx, w, cfgs)
		if err != nil {
			return err
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
		rows[i] = row
		s.emitRow(i, w.Name, rows[i])
		return nil
	})
	markFailures(err, func(i int, msg string) {
		rows[i].Name = s.Workloads[i].Name
		rows[i].Err = msg
	})
	return rows, err
}

// ProfileResult is one benchmark's Figure-7 parallelism profile.
type ProfileResult struct {
	Name         string
	Profile      []stats.ProfilePoint
	BucketWidth  int64
	CriticalPath int64
	Available    float64
	PeakOps      float64
}

// Figure7 reproduces the parallelism profiles: conservative system calls,
// full renaming, whole-trace window.
func (s *Suite) Figure7(ctx context.Context) ([]ProfileResult, error) {
	out := make([]ProfileResult, len(s.Workloads))
	err := s.forEachWorkload(ctx, func(ctx context.Context, i int, w *workloads.Workload) error {
		cfg := core.Dataflow(core.SyscallConservative)
		r, err := s.Analyze(ctx, w, cfg)
		if err != nil {
			return err
		}
		out[i] = ProfileResult{
			Name:         w.Name,
			Profile:      r.Profile,
			BucketWidth:  r.ProfileBucketWidth,
			CriticalPath: r.CriticalPath,
			Available:    r.Available,
			PeakOps:      r.PeakOps,
		}
		s.emitRow(i, w.Name, out[i])
		return nil
	})
	return out, err
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

// Table4 reproduces Table 4: available parallelism under the four renaming
// conditions, conservative system calls, whole-trace window, no functional
// unit limits.
func (s *Suite) Table4(ctx context.Context) ([]Table4Row, error) {
	cfgs := []core.Config{
		{Syscalls: core.SyscallConservative},
		{Syscalls: core.SyscallConservative, RenameRegisters: true},
		{Syscalls: core.SyscallConservative, RenameRegisters: true, RenameStack: true},
		{Syscalls: core.SyscallConservative, RenameRegisters: true, RenameStack: true, RenameData: true},
	}
	rows := make([]Table4Row, len(s.Workloads))
	err := s.forEachWorkload(ctx, func(ctx context.Context, i int, w *workloads.Workload) error {
		rs, err := s.AnalyzeMulti(ctx, w, cfgs)
		if err != nil {
			return err
		}
		rows[i] = Table4Row{
			Name:       w.Name,
			NoRenaming: rs[0].Available,
			Regs:       rs[1].Available,
			RegsStack:  rs[2].Available,
			RegsMem:    rs[3].Available,
		}
		s.emitRow(i, w.Name, rows[i])
		return nil
	})
	markFailures(err, func(i int, msg string) {
		rows[i].Name = s.Workloads[i].Name
		rows[i].Err = msg
	})
	return rows, err
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
}

// Figure8 reproduces the window-size sweep: conservative system calls,
// full renaming, no functional-unit limits, window sizes as given (use
// DefaultWindowSizes for the paper's log-scale axis). Each workload is
// simulated once; all window sizes analyze the same trace.
func (s *Suite) Figure8(ctx context.Context, sizes []int) ([]WindowSeries, error) {
	if len(sizes) == 0 {
		sizes = DefaultWindowSizes()
	}
	out := make([]WindowSeries, len(s.Workloads))
	err := s.forEachWorkload(ctx, func(ctx context.Context, wi int, w *workloads.Workload) error {
		cfgs := make([]core.Config, len(sizes))
		for i, size := range sizes {
			cfg := core.Dataflow(core.SyscallConservative)
			cfg.Profile = false
			cfg.WindowSize = size
			cfgs[i] = cfg
		}
		rs, err := s.AnalyzeMulti(ctx, w, cfgs)
		if err != nil {
			return err
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
				if r.Available > total {
					total = r.Available
				}
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
		out[wi] = series
		s.emitRow(wi, w.Name, out[wi])
		return nil
	})
	return out, err
}

// FURow is one row of the functional-unit extension experiment (E8).
type FURow struct {
	Name   string
	Limits []int
	Avail  []float64
}

// FunctionalUnits sweeps generic functional-unit counts (Figure 4's
// resource dependencies, quantified): full renaming, conservative
// syscalls.
func (s *Suite) FunctionalUnits(ctx context.Context, limits []int) ([]FURow, error) {
	if len(limits) == 0 {
		limits = []int{1, 2, 4, 8, 16, 32, 64, 0}
	}
	rows := make([]FURow, len(s.Workloads))
	err := s.forEachWorkload(ctx, func(ctx context.Context, i int, w *workloads.Workload) error {
		cfgs := make([]core.Config, len(limits))
		for j, f := range limits {
			cfg := core.Dataflow(core.SyscallConservative)
			cfg.Profile = false
			cfg.FunctionalUnits = f
			cfgs[j] = cfg
		}
		rs, err := s.AnalyzeMulti(ctx, w, cfgs)
		if err != nil {
			return err
		}
		row := FURow{Name: w.Name, Limits: limits}
		for _, r := range rs {
			row.Avail = append(row.Avail, r.Available)
		}
		rows[i] = row
		s.emitRow(i, w.Name, rows[i])
		return nil
	})
	return rows, err
}

// LifetimeRow carries the E9 extension distributions for one benchmark.
type LifetimeRow struct {
	Name          string
	Lifetimes     stats.LogDist
	Sharing       stats.LogDist
	MaxLiveMemory int
}

// Lifetimes collects value-lifetime and degree-of-sharing distributions
// (Section 2.3's "distribution of value lifetimes" and "degree of sharing
// of each computed value").
func (s *Suite) Lifetimes(ctx context.Context) ([]LifetimeRow, error) {
	rows := make([]LifetimeRow, len(s.Workloads))
	err := s.forEachWorkload(ctx, func(ctx context.Context, i int, w *workloads.Workload) error {
		cfg := core.Dataflow(core.SyscallConservative)
		cfg.Profile = false
		cfg.Lifetimes = true
		cfg.Sharing = true
		r, err := s.Analyze(ctx, w, cfg)
		if err != nil {
			return err
		}
		rows[i] = LifetimeRow{
			Name:          w.Name,
			Lifetimes:     r.Lifetimes,
			Sharing:       r.Sharing,
			MaxLiveMemory: r.MaxLiveMemoryWords,
		}
		s.emitRow(i, w.Name, rows[i])
		return nil
	})
	return rows, err
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
// renaming (where loop-counter recurrences matter most).
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
		full := core.Dataflow(core.SyscallConservative)
		full.Profile = false
		regsOnly := core.Config{Syscalls: core.SyscallConservative, RenameRegisters: true}
		rs, err := sub.AnalyzeMulti(ctx, w, []core.Config{full, regsOnly})
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
}

// BranchPrediction sweeps the control-dependency models (perfect, two-bit,
// static BTFN, stall), quantifying Section 3.2's observation that the
// firewall can model mispredicted branches. Renaming is full and windows
// unlimited, so control is the only constraint varied.
func (s *Suite) BranchPrediction(ctx context.Context, policies []core.BranchPolicy) ([]BranchRow, error) {
	if len(policies) == 0 {
		policies = []core.BranchPolicy{
			core.BranchStall, core.BranchStatic, core.BranchTwoBit, core.BranchPerfect,
		}
	}
	rows := make([]BranchRow, len(s.Workloads))
	err := s.forEachWorkload(ctx, func(ctx context.Context, i int, w *workloads.Workload) error {
		cfgs := make([]core.Config, len(policies))
		for j, p := range policies {
			cfg := core.Dataflow(core.SyscallConservative)
			cfg.Profile = false
			cfg.Branches = p
			cfgs[j] = cfg
		}
		rs, err := s.AnalyzeMulti(ctx, w, cfgs)
		if err != nil {
			return err
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
		rows[i] = row
		s.emitRow(i, w.Name, rows[i])
		return nil
	})
	return rows, err
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
