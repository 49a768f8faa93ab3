package harness

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// TestCancellationPromptAndLeakFree is the cancellation acceptance test: a
// context cancelled mid-experiment surfaces context.Canceled promptly and
// leaves no worker goroutines behind.
func TestCancellationPromptAndLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	s := suite("xlispx", "matrixx", "spicex")
	s.Parallelism = 3
	s.Concurrency = 4
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Let the workloads get into their hot loops, then pull the plug.
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := s.Table3(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	// "Promptly" = guard strides, not workload completions: even the
	// slowest path should unwind within a generous fraction of the full
	// experiment's runtime.
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	// Workers drain after the error returns; give the scheduler a moment.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
}

// TestPreCancelledContext: an already-dead context stops the experiment
// before any workload output exists.
func TestPreCancelledContext(t *testing.T) {
	s := suite("xlispx")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Table2(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWorkloadTimeoutChain: the legacy ErrWorkloadTimeout identity must
// survive the context rewrite, with context.DeadlineExceeded alongside it in
// the chain so either classification works.
func TestWorkloadTimeoutChain(t *testing.T) {
	s := suite("xlispx")
	s.WorkloadTimeout = time.Nanosecond
	_, err := s.Table2(context.Background())
	if !errors.Is(err, ErrWorkloadTimeout) {
		t.Fatalf("err = %v, want ErrWorkloadTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	var we *WorkloadError
	if !errors.As(err, &we) || we.Workload != "xlispx" {
		t.Fatalf("err = %v, want a WorkloadError naming the workload", err)
	}
}

// TestSuiteBudgetFailFast: a suite-level budget reaches the analyzers and a
// hopeless budget fails the workload with the structured budget error.
func TestSuiteBudgetFailFast(t *testing.T) {
	s := suite("xlispx")
	s.MaxInstr = 200_000
	s.MemBudget = 1
	s.BudgetPolicy = budget.FailFast
	_, err := s.Table3(context.Background())
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestSuiteBudgetDegradeCompletes: under the Degrade policy the same
// hopeless budget finishes the experiment, and the rows carry accurate
// governor accounting.
func TestSuiteBudgetDegradeCompletes(t *testing.T) {
	s := suite("xlispx")
	s.MaxInstr = 200_000
	s.MemBudget = 1
	s.BudgetPolicy = budget.Degrade
	w := s.Workloads[0]
	results, err := s.AnalyzeMulti(context.Background(), w, []core.Config{
		core.Dataflow(core.SyscallConservative),
		core.Dataflow(core.SyscallOptimistic),
	})
	if err != nil {
		t.Fatalf("degrade-mode analysis failed: %v", err)
	}
	for i, r := range results {
		if r.Governor == nil {
			t.Fatalf("config %d: no GovernorStats on a governed run", i)
		}
		if !r.Governor.Governed() || r.Governor.Degradations == 0 {
			t.Errorf("config %d: stats = %+v, want recorded degradations", i, r.Governor)
		}
		if r.Governor.PeakLiveWellBytes == 0 || r.Governor.Checks == 0 {
			t.Errorf("config %d: stats = %+v, want non-zero accounting", i, r.Governor)
		}
	}
}

// TestEngineDowngrade: a budget below the resolved engine's minimum
// segment ring (two segments in half the budget) makes a multi-config
// analysis fall back to streaming under Degrade; the results match the
// ungoverned streaming engine's and every row records the downgrade. The
// workload's analyzers fit the same budget without degrading, so only the
// engine choice changes.
func TestEngineDowngrade(t *testing.T) {
	w, ok := workloads.ByName("matrixx")
	if !ok {
		t.Fatal("unknown workload matrixx")
	}
	cfgs := []core.Config{
		core.Dataflow(core.SyscallConservative),
		core.Dataflow(core.SyscallOptimistic),
	}

	governed := NewSuite(1)
	governed.MaxInstr = 300_000
	governed.Concurrency = 4
	governed.MemBudget = 3 * core.ResolveSegmentBytes
	governed.BudgetPolicy = budget.Degrade
	got, err := governed.AnalyzeMulti(context.Background(), w, cfgs)
	if err != nil {
		t.Fatalf("governed analysis failed: %v", err)
	}

	reference := NewSuite(1)
	reference.MaxInstr = 300_000
	want, err := reference.analyzeStreaming(context.Background(), w, cfgs)
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("result counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Governor == nil || !got[i].Governor.EngineDowngraded {
			t.Fatalf("config %d: stats = %+v, want EngineDowngraded", i, got[i].Governor)
		}
		if got[i].Governor.Degradations > 0 {
			t.Fatalf("config %d: stats = %+v; the fixture's analyzers must fit the budget", i, got[i].Governor)
		}
		// Strip the governance bookkeeping; the analysis must be identical.
		g := *got[i]
		g.Governor = nil
		g.Config.MemBudget = 0
		g.Config.BudgetPolicy = budget.FailFast
		if !reflect.DeepEqual(&g, want[i]) {
			t.Errorf("config %d: downgraded engine diverged from streaming reference", i)
		}
	}
}

// TestRingEngineAvoidsDowngrade is the constant-memory claim stated as
// governance: an 8 MiB budget fits the resolved engine's segment ring at
// full depth with room to spare, so the analysis completes at full
// fidelity — no downgrade, no degradations — with results deeply equal to
// the streaming reference, on both scheduling topologies.
func TestRingEngineAvoidsDowngrade(t *testing.T) {
	w, ok := workloads.ByName("matrixx")
	if !ok {
		t.Fatal("unknown workload matrixx")
	}
	cfgs := []core.Config{
		core.Dataflow(core.SyscallConservative),
		core.Dataflow(core.SyscallOptimistic),
	}

	reference := NewSuite(1)
	reference.MaxInstr = 300_000
	want, err := reference.analyzeStreaming(context.Background(), w, cfgs)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		governed := NewSuite(1)
		governed.MaxInstr = 300_000
		governed.Concurrency = workers
		governed.MemBudget = 8 << 20
		governed.BudgetPolicy = budget.Degrade
		got, err := governed.AnalyzeMulti(context.Background(), w, cfgs)
		if err != nil {
			t.Fatalf("Concurrency %d: governed analysis failed: %v", workers, err)
		}
		for i := range got {
			if got[i].Governor == nil {
				t.Fatalf("Concurrency %d, config %d: no GovernorStats on a governed run", workers, i)
			}
			if got[i].Governor.EngineDowngraded {
				t.Errorf("Concurrency %d, config %d: resolved engine downgraded under a budget it fits", workers, i)
			}
			if got[i].Governor.Degradations > 0 {
				t.Errorf("Concurrency %d, config %d: stats = %+v, want no degradations", workers, i, got[i].Governor)
			}
			g := *got[i]
			g.Governor = nil
			g.Config.MemBudget = 0
			g.Config.BudgetPolicy = budget.FailFast
			if !reflect.DeepEqual(&g, want[i]) {
				t.Errorf("Concurrency %d, config %d: resolved engine diverged from streaming reference", workers, i)
			}
		}
	}
}

// TestBudgetZeroIsLegacyPath: with no budget and a Background context the
// suite must produce results deeply equal to an explicitly ungoverned run —
// the differential battery's byte-identity claim for `-mem-budget=0`.
func TestBudgetZeroIsLegacyPath(t *testing.T) {
	a := suite("xlispx")
	a.MaxInstr = 200_000
	a.MemBudget = 0
	ra, err := a.Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b := suite("xlispx")
	b.MaxInstr = 200_000
	rb, err := b.Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("mem-budget=0 rows differ from legacy rows\ngot:  %+v\nwant: %+v", ra, rb)
	}
}

// countingSink is the cheapest possible inner sink, so the benchmark
// measures guard overhead rather than analysis work.
type countingSink struct{ n uint64 }

func (c *countingSink) Event(*trace.Event) error { c.n++; return nil }

// perEventGuard is the naive alternative the amortized guard replaced:
// consult the context on every single event.
type perEventGuard struct {
	inner trace.Sink
	ctx   context.Context
}

func (g *perEventGuard) Event(e *trace.Event) error {
	if err := g.inner.Event(e); err != nil {
		return err
	}
	if err := g.ctx.Err(); err != nil {
		return err
	}
	return nil
}

// BenchmarkCancellationGuard quantifies satellite (a): the amortized
// guard's per-event cost must sit within noise of no guard at all, while
// the per-event variant pays a context check on every event.
//
//	go test ./internal/harness/ -bench CancellationGuard -run ^$
func BenchmarkCancellationGuard(b *testing.B) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	e := &trace.Event{PC: 0x400000}
	variants := []struct {
		name string
		sink trace.Sink
	}{
		{"none", &countingSink{}},
		{"amortized-1024", &ctxGuard{inner: &countingSink{}, ctx: ctx}},
		{"every-event", &perEventGuard{inner: &countingSink{}, ctx: ctx}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := v.sink.Event(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
