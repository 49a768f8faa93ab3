package harness

// Plan tests: a plan of every per-workload experiment must produce the
// rows each experiment produces alone, compile and simulate each workload
// once, mark failed workloads in every renderer, and keep a pooled
// workload's memory commitments within its share. The Differential ones
// run under the race detector in `make differential`.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// allExperiments is every per-workload experiment at its defaults, in
// specrun's order.
func allExperiments() []*Experiment {
	return []*Experiment{
		Table2Experiment(), Table3Experiment(), Table4Experiment(), Figure7Experiment(),
		Figure8Experiment(nil), FunctionalUnitsExperiment(nil), LifetimesExperiment(),
		BranchPredictionExperiment(nil),
	}
}

// aloneRows runs each experiment of allExperiments through its own method,
// as rows comparable with a plan's.
func aloneRows(t *testing.T, s *Suite) [][]any {
	t.Helper()
	ctx := context.Background()
	var out [][]any
	add := func(rows any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		v := reflect.ValueOf(rows)
		r := make([]any, v.Len())
		for i := range r {
			r[i] = v.Index(i).Interface()
		}
		out = append(out, r)
	}
	add(s.Table2(ctx))
	add(s.Table3(ctx))
	add(s.Table4(ctx))
	add(s.Figure7(ctx))
	add(s.Figure8(ctx, nil))
	add(s.FunctionalUnits(ctx, nil))
	add(s.Lifetimes(ctx))
	add(s.BranchPrediction(ctx, nil))
	return out
}

// TestDifferentialPlanMatchesSingleExperiments: one plan of all eight
// experiments yields rows deep-equal to each experiment run alone, on both
// scheduling topologies.
func TestDifferentialPlanMatchesSingleExperiments(t *testing.T) {
	for _, conc := range []int{1, 4} {
		s := suite("xlispx", "naskerx", "matrixx")
		s.MaxInstr = 150_000
		s.Parallelism = conc
		s.Concurrency = conc
		want := aloneRows(t, s)
		exps := allExperiments()
		got, err := s.RunPlan(context.Background(), exps, nil)
		if err != nil {
			t.Fatalf("Concurrency %d: plan: %v", conc, err)
		}
		for e := range exps {
			if !reflect.DeepEqual(got[e], want[e]) {
				t.Errorf("Concurrency %d: %s rows from the plan differ from the experiment alone\nplan:  %+v\nalone: %+v",
					conc, exps[e].Name, got[e], want[e])
			}
		}
	}
}

// countCompiles returns copies of the named workloads whose Source counts
// its calls — one per compile — and the counters.
func countCompiles(t *testing.T, names ...string) ([]*workloads.Workload, []*atomic.Int64) {
	t.Helper()
	ws := suite(names...).Workloads
	counts := make([]*atomic.Int64, len(ws))
	for i, w := range ws {
		c := *w
		n := new(atomic.Int64)
		c.Source = func(scale int) string { n.Add(1); return w.Source(scale) }
		ws[i], counts[i] = &c, n
	}
	return ws, counts
}

// TestDifferentialPlanCompilesOnce: a plan of all eight experiments
// compiles (and so simulates) each workload exactly once, and a plan whose
// rows are all cached compiles nothing.
func TestDifferentialPlanCompilesOnce(t *testing.T) {
	for _, conc := range []int{1, 4} {
		s := NewSuite(1)
		s.MaxInstr = 100_000
		s.Parallelism, s.Concurrency = conc, conc
		var counts []*atomic.Int64
		s.Workloads, counts = countCompiles(t, "xlispx", "naskerx", "matrixx")
		rows, err := s.RunPlan(context.Background(), allExperiments(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range counts {
			if got := n.Load(); got != 1 {
				t.Errorf("Concurrency %d: %s compiled %d times in one plan, want 1", conc, s.Workloads[i].Name, got)
			}
		}

		// Replay every row from a cache: nothing is compiled again, and
		// the rows come back unchanged.
		byName := map[string][]any{}
		for e, x := range allExperiments() {
			byName[x.Name] = rows[e]
		}
		index := map[string]int{}
		for i, w := range s.Workloads {
			index[w.Name] = i
		}
		cached := func(exp, workload string) (any, bool) { return byName[exp][index[workload]], true }
		again, err := s.RunPlan(context.Background(), allExperiments(), cached)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range counts {
			if got := n.Load(); got != 1 {
				t.Errorf("Concurrency %d: %s compiled %d times after a fully cached plan, want 1", conc, s.Workloads[i].Name, got)
			}
		}
		if !reflect.DeepEqual(again, rows) {
			t.Errorf("Concurrency %d: cached plan rows differ from the computed ones", conc)
		}
	}
}

// TestPlanMergesStatisticsOnlyConfigs: the eight experiments' 42
// per-workload configurations collapse to 36 schedules, because seven of
// them are the same conservative, fully renamed, unlimited schedule and
// differ only in the statistics they collect.
func TestPlanMergesStatisticsOnlyConfigs(t *testing.T) {
	exps := allExperiments()
	todo := make([]int, len(exps))
	total := 0
	for e, x := range exps {
		todo[e] = e
		total += len(x.Configs)
	}
	union, index := planConfigs(exps, todo)
	if total != 42 || len(union) != 36 {
		t.Fatalf("%d configurations planned as %d schedules, want 42 as 36", total, len(union))
	}
	merged := union[index[3][0]] // Figure 7's
	if !merged.Profile || !merged.Lifetimes || !merged.Sharing {
		t.Errorf("merged schedule %+v does not collect every statistic asked for", merged)
	}
	for e, x := range exps {
		for k, c := range x.Configs {
			if !sameSchedule(union[index[e][k]], c) {
				t.Errorf("%s config %d mapped to a different schedule", x.Name, k)
			}
		}
	}
}

// renderAll renders one plan's rows with every experiment's renderer.
func renderAll(rows [][]any) (string, error) {
	var b bytes.Buffer
	err := errors.Join(
		RenderTable2(&b, Rows[Table2Row](rows[0])),
		RenderTable3(&b, Rows[Table3Row](rows[1])),
		RenderTable4(&b, Rows[Table4Row](rows[2])),
		RenderFigure7(&b, Rows[ProfileResult](rows[3])),
		RenderFigure8(&b, Rows[WindowSeries](rows[4])),
		WriteFigure8CSV(&b, Rows[WindowSeries](rows[4])),
		RenderFunctionalUnits(&b, Rows[FURow](rows[5])),
		RenderLifetimes(&b, Rows[LifetimeRow](rows[6])),
		RenderBranches(&b, Rows[BranchRow](rows[7])),
	)
	return b.String(), err
}

// TestKeepGoingRendersFailedRows puts a failing workload first and then
// second in every experiment: each renderer marks it FAILED with its name
// and error, takes its column labels from the good row, and the CSV writer
// leaves it out.
func TestKeepGoingRendersFailedRows(t *testing.T) {
	for bad := 0; bad < 2; bad++ {
		s := suite("xlispx", "xlispx")
		s.MaxInstr = 100_000
		s.ContinueOnError = true
		s.Workloads[bad] = brokenWorkload()
		exps := allExperiments()
		rows, err := s.RunPlan(context.Background(), exps, nil)
		var se *SuiteError
		if !errors.As(err, &se) || len(se.Failures) != 1 || se.Failures[0].Index != bad {
			t.Fatalf("broken workload at %d: err = %v, want one failure at that index", bad, err)
		}
		for e, x := range exps {
			v := reflect.ValueOf(rows[e][bad])
			if name := v.FieldByName("Name").String(); name != "brokenx" {
				t.Errorf("broken workload at %d: %s failed row named %q", bad, x.Name, name)
			}
			if msg := v.FieldByName("Err").String(); msg == "" {
				t.Errorf("broken workload at %d: %s failed row carries no error", bad, x.Name)
			}
		}
		out, err := renderAll(rows)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(out, "brokenx"); n < len(exps) {
			t.Errorf("broken workload at %d: named %d times across %d renderers:\n%s", bad, n, len(exps), out)
		}
		if n := strings.Count(out, "FAILED: "); n != len(exps) {
			t.Errorf("broken workload at %d: %d FAILED marks across %d renderers:\n%s", bad, n, len(exps), out)
		}
		for _, label := range []string{"unlimited", "64 FUs", "perfect", "miss%", "full", "xlispx parallelism profile ("} {
			if !strings.Contains(out, label) {
				t.Errorf("broken workload at %d: rendering lost %q:\n%s", bad, label, out)
			}
		}
		if strings.Contains(out, "window,xlispx,brokenx") || strings.Contains(out, "window,brokenx") {
			t.Errorf("broken workload at %d: Figure 8 CSV has a column for the failed series:\n%s", bad, out)
		}
	}
}

// TestGlobalMemBudgetBoundsWorkload: under GlobalMemBudget a workload's
// configuration budgets plus its segment ring fit within its pool share,
// on the resolved and the streaming engine, and MemBudget still caps each
// analyzer when it is the smaller limit.
func TestGlobalMemBudgetBoundsWorkload(t *testing.T) {
	const share = 2 << 20 // one workload at a time gets the whole pool
	fus := FunctionalUnitsExperiment(nil)
	for _, tc := range []struct {
		name      string
		cfgs      []core.Config
		memBudget int64
	}{
		{"resolved", fus.Configs, 0},
		{"streaming", fus.Configs[:1], 0},
		{"mem-budget smaller", fus.Configs, 64 << 10},
	} {
		s := suite("tomcatvx", "xlispx")
		s.MaxInstr = 100_000
		s.Parallelism = 1
		s.GlobalMemBudget = share
		s.MemBudget = tc.memBudget
		s.BudgetPolicy = budget.Degrade
		capture := &Experiment{Name: "budgets", Configs: tc.cfgs,
			Row: func(_ *workloads.Workload, _ *workloads.RunResult, rs []*core.Result, _ error) any {
				b := make([]int64, len(rs))
				for i, r := range rs {
					b[i] = r.Config.MemBudget
				}
				return b
			}}
		rows, err := s.RunPlan(context.Background(), []*Experiment{capture}, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var ring int64 // with MemBudget this small the ring does not fit and the engine downgrades
		if len(tc.cfgs) > 1 && tc.memBudget == 0 {
			ring = int64(min(trace.DefaultSegRingDepth, share/2/int(core.ResolveSegmentBytes))) * core.ResolveSegmentBytes
		}
		for i, row := range Rows[[]int64](rows[0]) {
			total := ring
			for _, b := range row {
				if b <= 0 || (tc.memBudget > 0 && b > tc.memBudget) {
					t.Errorf("%s, %s: config budget %d, want positive and at most MemBudget %d",
						tc.name, s.Workloads[i].Name, b, tc.memBudget)
				}
				total += b
			}
			if total > share {
				t.Errorf("%s, %s: %d config budgets plus a %d-byte ring commit %d bytes, over the %d-byte share",
					tc.name, s.Workloads[i].Name, len(row), ring, total, share)
			}
			if tc.memBudget == 0 && total < share*9/10 {
				t.Errorf("%s, %s: budgets commit only %d of a %d-byte share", tc.name, s.Workloads[i].Name, total, share)
			}
		}
	}
}
