package core

import (
	"sync"
	"testing"

	"paragraph/internal/minic"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// In-process A/B benchmarks for the two halves of analysis: the resolver,
// and the replay of its records under the paper's configurations. Each
// analogue's scale-1 events (the first benchAnalogueEvents of them) and
// their whole-trace resolution are recorded once per process; every
// iteration then resolves, replays or analyzes all ten, and each benchmark
// reports ns per event. Tables 3 and 4 and Figure 7 replay in the unlimited
// loop; the windowed, FU-limited and two-bit configs exercise the general
// one.
//
// The numbers are meant for alternating pairs of two builds on one
// machine, for example at GOMAXPROCS 1:
//
//	go test -c -o /tmp/new.test ./internal/core   # in each tree
//	for i in 1 2 3 4 5 6; do
//	  GOMAXPROCS=1 /tmp/old.test -test.run '^$' -test.bench HotPath -test.benchtime 5x
//	  GOMAXPROCS=1 /tmp/new.test -test.run '^$' -test.bench HotPath -test.benchtime 5x
//	done
//
// and compared by the median of each side's ns/event.

// benchAnalogueEvents caps each analogue's recorded events: the ten
// analogues then hold about 5M events, 140 MB of events and 80 MB of
// records, instead of 13.2M.
const benchAnalogueEvents = 600_000

// benchAnalogue is one analogue's recorded events and their resolution.
type benchAnalogue struct {
	name   string
	events []trace.Event
	segs   []*DepSegment
	totals ResolveTotals
}

var benchData struct {
	once      sync.Once
	analogues []benchAnalogue
	events    int
	err       error
}

// benchAnalogues records the analogues once per process.
func benchAnalogues(b *testing.B) ([]benchAnalogue, int) {
	b.Helper()
	benchData.once.Do(func() {
		for _, w := range workloads.All() {
			an := benchAnalogue{name: w.Name}
			res := NewResolver(Config{}, func(seg *DepSegment) error {
				an.segs = append(an.segs, seg)
				return nil
			})
			sink := trace.SinkFunc(func(e *trace.Event) error {
				an.events = append(an.events, *e)
				return res.Event(e)
			})
			if _, err := w.Run(1, minic.Options{}, sink, benchAnalogueEvents); err != nil {
				benchData.err = err
				return
			}
			if err := res.Flush(); err != nil {
				benchData.err = err
				return
			}
			an.totals = res.Totals()
			benchData.analogues = append(benchData.analogues, an)
			benchData.events += len(an.events)
		}
	})
	if benchData.err != nil {
		b.Fatal(benchData.err)
	}
	return benchData.analogues, benchData.events
}

// reportPerEvent reports the benchmark's time per event over iterations of
// events each.
func reportPerEvent(b *testing.B, events int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
}

// benchReplayConfigs are the replayed configurations: Table 3's two,
// Table 4's four, Figure 7's, and three that take the general loop.
func benchReplayConfigs() []struct {
	name string
	cfg  Config
} {
	dataflow := func(p SyscallPolicy) Config {
		cfg := Dataflow(p)
		cfg.Profile = false
		return cfg
	}
	window := dataflow(SyscallConservative)
	window.WindowSize = 2048
	fu := dataflow(SyscallConservative)
	fu.FunctionalUnits = 8
	twoBit := dataflow(SyscallConservative)
	twoBit.Branches = BranchTwoBit
	twoBit.Lifetimes, twoBit.Sharing = true, true
	return []struct {
		name string
		cfg  Config
	}{
		{"table3-cons", dataflow(SyscallConservative)},
		{"table3-opt", dataflow(SyscallOptimistic)},
		{"table4-norename", Config{}},
		{"table4-regs", Config{RenameRegisters: true}},
		{"table4-regs-stack", Config{RenameRegisters: true, RenameStack: true}},
		{"table4-all", dataflow(SyscallConservative)},
		{"fig7", Dataflow(SyscallConservative)},
		{"window2048", window},
		{"fu8", fu},
		{"twobit-lifetimes", twoBit},
	}
}

// BenchmarkHotPath times, per event of the recorded analogues: the
// whole-trace resolver fed event by event, as a simulation feeds it on
// the resolved engine; a Scheduler's replay of the recorded resolution
// under each benchReplayConfigs config; and Figure 7's single-config
// analyzer, fed event by event as the harness feeds it and in batches of
// trace.DefaultBatchEvents as a chained shard attempt does.
func BenchmarkHotPath(b *testing.B) {
	analogues, events := benchAnalogues(b)
	b.Run("resolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, an := range analogues {
				var r *Resolver
				r = NewResolver(Config{}, func(seg *DepSegment) error { r.Reuse(seg); return nil })
				for j := range an.events {
					if err := r.Event(&an.events[j]); err != nil {
						b.Fatal(err)
					}
				}
				if err := r.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportPerEvent(b, events)
	})
	for _, c := range benchReplayConfigs() {
		b.Run("replay/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, an := range analogues {
					s := NewScheduler(c.cfg)
					for _, seg := range an.segs {
						if err := s.Apply(seg); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := s.Finish(an.totals); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportPerEvent(b, events)
		})
	}
	fig7 := Dataflow(SyscallConservative)
	b.Run("analyze/fig7-event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, an := range analogues {
				a := NewAnalyzer(fig7)
				for j := range an.events {
					if err := a.Event(&an.events[j]); err != nil {
						b.Fatal(err)
					}
				}
				a.MustFinish()
			}
		}
		reportPerEvent(b, events)
	})
	b.Run("analyze/fig7-events", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, an := range analogues {
				a := NewAnalyzer(fig7)
				for lo := 0; lo < len(an.events); lo += trace.DefaultBatchEvents {
					if err := a.Events(an.events[lo:min(lo+trace.DefaultBatchEvents, len(an.events))]); err != nil {
						b.Fatal(err)
					}
				}
				a.MustFinish()
			}
		}
		reportPerEvent(b, events)
	})
}
