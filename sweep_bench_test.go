package paragraph

// The shared-extraction benchmark: the window sweep that motivates the
// resolver/scheduler split (ISSUE: resolve once, schedule per config). An
// 8-window sweep analyzes one stream under 8 configurations that differ
// only in window size, so the expensive config-invariant half of analysis —
// event validation, live-well hashing, slot resolution — is identical 8
// times over. Eight sequential analyzers pay it 8 times; the resolved
// engine pays it once and broadcasts packed dependence records. `make
// bench` captures the cases in BENCH_sweep.json; the resolve-only and
// schedule-only cases report the honest cost split behind them.

import (
	"bytes"
	"context"
	"testing"

	"paragraph/internal/core"
	"paragraph/internal/harness"
	"paragraph/internal/trace"
)

// sweepBenchConfigs is the 8-config window sweep shape used throughout this
// benchmark: one resolve group by construction.
func sweepBenchConfigs() []core.Config {
	var cfgs []core.Config
	for _, size := range []int{1, 32, 128, 512, 2048, 8192, 65536, 0} {
		cfg := core.Dataflow(core.SyscallConservative)
		cfg.Profile = false
		cfg.WindowSize = size
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// BenchmarkWindowSweep times the shared extraction on the 8-window sweep of
// one 2M-event synthetic trace, checked against 8 sequential analyzers
// computed outside the timer:
//
//	resolved-8    one resolver, 8 record-replay schedulers
//	resolve-only  the config-invariant half alone (hashing, validation)
//	schedule-only the per-config half alone (8 schedulers, records cached)
//
// resolve-only + schedule-only/8 bound what any further scheduling work
// can save.
func BenchmarkWindowSweep(b *testing.B) {
	const nevents = 2_000_000
	data := synthSpecStream(b, nevents)
	cfgs := sweepBenchConfigs()

	decode := func(sink trace.BatchSink) error {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		return r.ForEachBatch(sink.Events)
	}

	buf := &trace.EventBuffer{}
	if err := decode(buf); err != nil {
		b.Fatal(err)
	}
	ref := make([]*core.Result, len(cfgs))
	for i, cfg := range cfgs {
		a := core.NewAnalyzer(cfg)
		if err := buf.ReplayBatches(context.Background(), a); err != nil {
			b.Fatal(err)
		}
		ref[i] = a.MustFinish()
	}
	check := func(b *testing.B, res []*core.Result) {
		b.Helper()
		for i := range res {
			if res[i].CriticalPath != ref[i].CriticalPath || res[i].Operations != ref[i].Operations {
				b.Fatalf("config %d: sweep result drifted from the sequential analyzer", i)
			}
		}
	}
	perSweep := float64(nevents) * float64(len(cfgs))

	b.Run("resolved-8", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		var res []*core.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, _, err = harness.FanOutResolved(context.Background(), func(rs *harness.ResolverStream) error {
				return decode(rs)
			}, cfgs, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		check(b, res)
		b.ReportMetric(perSweep*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("resolve-only", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			r := core.NewResolver(cfgs[0], func(*core.DepSegment) error { return nil })
			if err := decode(resolverSink{r}); err != nil {
				b.Fatal(err)
			}
			if err := r.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nevents)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("schedule-only", func(b *testing.B) {
		// Resolve once outside the timer; the loop replays the cached
		// segments through all 8 schedulers — the marginal cost of one
		// more config in a sweep, times 8.
		var segs []*core.DepSegment
		r := core.NewResolver(cfgs[0], func(seg *core.DepSegment) error {
			segs = append(segs, seg)
			return nil
		})
		if err := decode(resolverSink{r}); err != nil {
			b.Fatal(err)
		}
		if err := r.Flush(); err != nil {
			b.Fatal(err)
		}
		totals := r.Totals()
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		var res []*core.Result
		for i := 0; i < b.N; i++ {
			res = res[:0]
			for _, cfg := range cfgs {
				s := core.NewScheduler(cfg)
				for _, seg := range segs {
					if err := s.Apply(seg); err != nil {
						b.Fatal(err)
					}
				}
				out, err := s.Finish(totals)
				if err != nil {
					b.Fatal(err)
				}
				res = append(res, out)
			}
		}
		b.StopTimer()
		check(b, res)
		b.ReportMetric(perSweep*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
}

// resolverSink adapts a bare core.Resolver to trace.BatchSink for the
// stage-isolated benchmark cases.
type resolverSink struct{ r *core.Resolver }

func (s resolverSink) Event(e *trace.Event) error       { return s.r.Event(e) }
func (s resolverSink) Events(batch []trace.Event) error { return s.r.Events(batch) }
