package paragraph

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (and per extension experiment from DESIGN.md).
// Each benchmark regenerates its experiment's rows/series and reports the
// headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced numbers.
// Scale up with -paragraph.scale=N to approach the paper's trace lengths.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"testing"

	"paragraph/internal/core"
	"paragraph/internal/cpu"
	"paragraph/internal/harness"
	"paragraph/internal/isa"
	"paragraph/internal/minic"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

var benchScale = flag.Int("paragraph.scale", 1, "workload scale factor for benchmarks")

func benchSuite() *harness.Suite { return harness.NewSuite(*benchScale) }

// BenchmarkTable1Latencies checks the latency table is what the paper
// specifies (configuration, not measurement; kept as a bench for the
// one-bench-per-table convention).
func BenchmarkTable1Latencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, row := range harness.Table1() {
			_ = row.Steps
		}
	}
	b.ReportMetric(float64(isa.ClassIntDiv.Latency()), "intdiv-steps")
	b.ReportMetric(float64(isa.ClassFPMul.Latency()), "fpmul-steps")
}

// BenchmarkTable2Inventory runs every workload once per iteration and
// reports the total dynamic instruction count of the suite.
func BenchmarkTable2Inventory(b *testing.B) {
	s := benchSuite()
	var total uint64
	for i := 0; i < b.N; i++ {
		rows, err := s.Table2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, r := range rows {
			total += r.Instructions
		}
	}
	b.ReportMetric(float64(total), "trace-instructions")
}

// BenchmarkTable3Dataflow regenerates the dataflow-limit table and reports
// the extremes of available parallelism across the suite.
func BenchmarkTable3Dataflow(b *testing.B) {
	s := benchSuite()
	var minAvail, maxAvail float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Table3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		minAvail, maxAvail = rows[0].ConsAvailable, rows[0].ConsAvailable
		for _, r := range rows {
			if r.ConsAvailable < minAvail {
				minAvail = r.ConsAvailable
			}
			if r.ConsAvailable > maxAvail {
				maxAvail = r.ConsAvailable
			}
		}
	}
	// The paper: "ranging from 13 to 23,302 operations per cycle".
	b.ReportMetric(minAvail, "min-available")
	b.ReportMetric(maxAvail, "max-available")
}

// BenchmarkTable4Renaming regenerates the renaming table and reports the
// geometric-mean step from no renaming to full renaming.
func BenchmarkTable4Renaming(b *testing.B) {
	s := benchSuite()
	var regsOverNone, memOverRegs float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Table4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		regsOverNone, memOverRegs = 1, 1
		for _, r := range rows {
			regsOverNone *= r.Regs / r.NoRenaming
			memOverRegs *= r.RegsMem / r.Regs
		}
		n := float64(len(rows))
		regsOverNone = pow(regsOverNone, 1/n)
		memOverRegs = pow(memOverRegs, 1/n)
	}
	b.ReportMetric(regsOverNone, "gmean-regs/none")
	b.ReportMetric(memOverRegs, "gmean-mem/regs")
}

func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}

// BenchmarkFigure7Profiles regenerates every parallelism profile and
// reports the burstiness (peak over average) of the suite.
func BenchmarkFigure7Profiles(b *testing.B) {
	s := benchSuite()
	var burst float64
	for i := 0; i < b.N; i++ {
		profiles, err := s.Figure7(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		burst = 0
		for _, p := range profiles {
			if p.Available > 0 && p.PeakOps/p.Available > burst {
				burst = p.PeakOps / p.Available
			}
		}
	}
	// The paper: "parallelism can be bursty in nature".
	b.ReportMetric(burst, "max-peak/avg")
}

// BenchmarkFigure8Window regenerates the window sweep with a reduced set of
// sizes and reports the parallelism exposed by a 128-instruction window
// (the paper: "modest levels of parallelism ... with window sizes as small
// as 100 instructions").
func BenchmarkFigure8Window(b *testing.B) {
	s := benchSuite()
	sizes := []int{1, 16, 128, 4096, 65536, 0}
	var atSmall, minPct float64
	for i := 0; i < b.N; i++ {
		series, err := s.Figure8(context.Background(), sizes)
		if err != nil {
			b.Fatal(err)
		}
		atSmall, minPct = 1e18, 100
		for _, ser := range series {
			for _, pt := range ser.Points {
				if pt.Window == 128 {
					if pt.Available < atSmall {
						atSmall = pt.Available
					}
					if pt.Percent < minPct {
						minPct = pt.Percent
					}
				}
			}
		}
	}
	b.ReportMetric(atSmall, "min-avail@128")
	b.ReportMetric(minPct, "min-pct@128")
}

// BenchmarkResourceLimits sweeps functional-unit counts (extension E8).
func BenchmarkResourceLimits(b *testing.B) {
	s := benchSuite()
	s.Workloads = pick("naskerx", "doducx")
	var oneFU float64
	for i := 0; i < b.N; i++ {
		rows, err := s.FunctionalUnits(context.Background(), []int{1, 8, 64, 0})
		if err != nil {
			b.Fatal(err)
		}
		oneFU = rows[0].Avail[0]
	}
	b.ReportMetric(oneFU, "avail@1FU")
}

// BenchmarkLifetimes collects the lifetime/sharing distributions
// (extension E9).
func BenchmarkLifetimes(b *testing.B) {
	s := benchSuite()
	s.Workloads = pick("doducx")
	var meanLife, meanShare float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Lifetimes(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		meanLife = rows[0].Lifetimes.Mean()
		meanShare = rows[0].Sharing.Mean()
	}
	b.ReportMetric(meanLife, "mean-lifetime")
	b.ReportMetric(meanShare, "mean-sharing")
}

// BenchmarkAblationUnrolling measures the compiler second-order effect
// (extension E7).
func BenchmarkAblationUnrolling(b *testing.B) {
	s := benchSuite()
	var shrink float64
	for i := 0; i < b.N; i++ {
		rows, err := s.AblationUnroll(context.Background(), "naskerx", []int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		shrink = float64(rows[0].Instructions) / float64(rows[1].Instructions)
	}
	b.ReportMetric(shrink, "instr-shrink@4x")
}

// BenchmarkAnalyzerThroughput measures the analyzer's raw event rate — the
// quantity that made the paper's runs take "approximately 10 hours on a
// DECstation 3100" per point.
func BenchmarkAnalyzerThroughput(b *testing.B) {
	w, _ := workloads.ByName("naskerx")
	prog, err := w.Build(*benchScale, minic.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// Pre-trace into memory once.
	var events []trace.Event
	sink := trace.SinkFunc(func(e *trace.Event) error {
		events = append(events, *e)
		return nil
	})
	m, err := cpu.New(prog, cpu.WithTrace(sink))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(0); err != nil {
		b.Fatal(err)
	}
	cfg := core.Dataflow(core.SyscallConservative)
	cfg.Profile = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.NewAnalyzer(cfg)
		for j := range events {
			if err := a.Event(&events[j]); err != nil {
				b.Fatal(err)
			}
		}
		a.MustFinish()
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSimulatorThroughput measures the CPU simulator's instruction
// rate (the Pixie-analogue side of the pipeline).
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := workloads.ByName("naskerx")
	prog, err := w.Build(*benchScale, minic.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := cpu.New(prog)
		if err != nil {
			b.Fatal(err)
		}
		n, err := m.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkCompiler measures MiniC compilation speed over the whole
// workload suite.
func BenchmarkCompiler(b *testing.B) {
	srcs := make([]string, 0, 10)
	for _, w := range workloads.All() {
		srcs = append(srcs, w.Source(1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := minic.Build(src, minic.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func pick(names ...string) []*workloads.Workload {
	out := make([]*workloads.Workload, 0, len(names))
	for _, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			panic(fmt.Sprintf("unknown workload %q", n))
		}
		out = append(out, w)
	}
	return out
}

// BenchmarkBranchPrediction sweeps the control-dependency models
// (extension E10) and reports how much of the dataflow limit a two-bit
// predictor exposes.
func BenchmarkBranchPrediction(b *testing.B) {
	s := benchSuite()
	s.Workloads = pick("xlispx", "doducx")
	var frac float64
	for i := 0; i < b.N; i++ {
		rows, err := s.BranchPrediction(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		frac = rows[0].Avail[2] / rows[0].Avail[3]
	}
	b.ReportMetric(frac*100, "twobit-pct-of-perfect")
}

// BenchmarkTwoPassFootprint compares the live-well working set of the
// paper's Method-2 (evict on reuse) and Method-1 (two-pass, evict at last
// use) dead-value strategies on a stored cc1x trace.
func BenchmarkTwoPassFootprint(b *testing.B) {
	w, _ := workloads.ByName("cc1x")
	prog, err := w.Build(*benchScale, minic.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteTrace(prog, &buf, 0); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	cfg := core.Dataflow(core.SyscallConservative)
	cfg.Profile = false
	var onePeak, twoPeak int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one, err := AnalyzeTraceFile(bytes.NewReader(data), cfg)
		if err != nil {
			b.Fatal(err)
		}
		two, err := core.AnalyzeTwoPass(bytes.NewReader(data), cfg)
		if err != nil {
			b.Fatal(err)
		}
		onePeak, twoPeak = one.MaxLiveMemoryWords, two.MaxLiveMemoryWords
	}
	b.ReportMetric(float64(onePeak), "onepass-live-words")
	b.ReportMetric(float64(twoPeak), "twopass-live-words")
}
