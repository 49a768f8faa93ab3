package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"

	"paragraph/internal/core"
	"paragraph/internal/cpu"
	"paragraph/internal/harness"
	"paragraph/internal/minic"
	"paragraph/internal/shard"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// ladderCap bounds the events per program the ladder replays, so its
// decoded buffers stay small; shorter programs replay whole.
const ladderCap = 1 << 20

// ladderInput is the input a workload hands the stage ladder.
type ladderInput struct {
	programs   []*workloads.Workload
	fullEvents map[string]float64 // each program's whole trace length
	// skipSuite and skipServe drop the harness and serve stages when the
	// workload's own traced operations already time those layers.
	skipSuite, skipServe bool
	// sweepSpan names the workload's resolved-sweep span; when set, the
	// engine wait is measured on the sweep rather than on the suite.
	sweepSpan string
}

type namedConfig struct {
	name string
	cfg  core.Config
}

// analyzeConfigs are the paper-suite's analyzer configurations: Figure 7's
// profiled dataflow limit, Table 3's optimistic column and Table 4's four
// renaming conditions (Table 3's conservative column is Table 4's "all").
func analyzeConfigs() []namedConfig {
	opt := core.Dataflow(core.SyscallOptimistic)
	opt.Profile = false
	cons := core.SyscallConservative
	return []namedConfig{
		{"dataflow-cons", core.Dataflow(cons)},
		{"dataflow-opt", opt},
		{"norename", core.Config{Syscalls: cons}},
		{"regs", core.Config{Syscalls: cons, RenameRegisters: true}},
		{"regs-stack", core.Config{Syscalls: cons, RenameRegisters: true, RenameStack: true}},
		{"all", core.Config{Syscalls: cons, RenameRegisters: true, RenameStack: true, RenameData: true}},
	}
}

// runLadder replays the workload's input through each layer's public entry
// point in isolation, one span per call, and checks that every path agrees
// with the plain analyzer. It returns the per-layer counts it measured
// outside spans.
func runLadder(ctx context.Context, rec *Recorder, in ladderInput) (map[string]float64, error) {
	root := rec.Begin("ladder", 0)
	defer rec.End(root, "", 0, 0)
	extras := make(map[string]float64)
	for _, w := range workloads.All() {
		id := rec.Begin("minic.build", root)
		_, err := minic.Build(w.Source(1), minic.Options{})
		rec.End(id, w.Name, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	var env *serveEnv
	if !in.skipServe {
		var err error
		if env, err = startServe(1, runtime.GOMAXPROCS(0)); err != nil {
			return nil, err
		}
		defer env.close()
	}
	for _, w := range in.programs {
		if err := ladderProgram(ctx, rec, root, w, env); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		runtime.GC()
	}
	if env != nil {
		env.serveMetrics(extras)
	}
	if !in.skipSuite {
		if err := ladderSuite(ctx, rec, root, in.programs); err != nil {
			return nil, err
		}
	}
	return extras, nil
}

// ladderSuite times the paper's experiments over the ladder's programs.
func ladderSuite(ctx context.Context, rec *Recorder, root int, ws []*workloads.Workload) error {
	s := harness.NewSuite(1)
	s.Workloads = ws
	s.Parallelism, s.Concurrency = runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0)
	id := rec.Begin("harness.table3", root)
	t3, err := s.Table3(ctx)
	rec.End(id, "", 0, 0)
	if err != nil {
		return err
	}
	id = rec.Begin("harness.table4", root)
	t4, err := s.Table4(ctx)
	rec.End(id, "", 0, 0)
	if err != nil {
		return err
	}
	id = rec.Begin("harness.figure7", root)
	f7, err := s.Figure7(ctx)
	rec.End(id, "", 0, 0)
	if err != nil {
		return err
	}
	id = rec.Begin("harness.render", root)
	defer rec.End(id, "", 0, 0)
	return errors.Join(harness.RenderTable3(io.Discard, t3), harness.RenderTable4(io.Discard, t4),
		harness.RenderFigure7(io.Discard, f7))
}

// ladderProgram runs every stage over one program's (capped) trace.
func ladderProgram(ctx context.Context, rec *Recorder, root int, w *workloads.Workload, env *serveEnv) error {
	tag := w.Name
	pid := rec.Begin("ladder.program", root)
	defer rec.End(pid, tag, 0, 0)
	span := func(name string, fn func() (events, bytes int64, err error)) error {
		id := rec.Begin(name, pid)
		ev, b, err := fn()
		rec.End(id, tag, ev, b)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	prog, err := minic.Build(w.Source(1), minic.Options{})
	if err != nil {
		return err
	}
	var n int64
	if err := span("cpu.run", func() (int64, int64, error) {
		m, err := cpu.New(prog, cpu.WithStdout(io.Discard))
		if err != nil {
			return 0, 0, err
		}
		c, err := m.Run(ladderCap)
		n = int64(c)
		if errors.Is(err, cpu.ErrLimit) {
			err = nil
		}
		return n, 0, err
	}); err != nil {
		return err
	}
	buf := &trace.EventBuffer{}
	buf.Grow(int(n))
	m, err := cpu.New(prog, cpu.WithTrace(buf), cpu.WithStdout(io.Discard))
	if err != nil {
		return err
	}
	if _, err := m.Run(ladderCap); err != nil && !errors.Is(err, cpu.ErrLimit) {
		return err
	}

	var enc bytes.Buffer
	if err := span("trace.encode", func() (int64, int64, error) {
		tw, err := trace.NewWriter(&enc)
		if err != nil {
			return 0, 0, err
		}
		if err := buf.Replay(tw); err != nil {
			return 0, 0, err
		}
		err = tw.Flush()
		return n, int64(enc.Len()), err
	}); err != nil {
		return err
	}
	data := enc.Bytes()

	var rs trace.ReadStats
	decode := func(open func() (*trace.Reader, error)) func() (int64, int64, error) {
		return func() (int64, int64, error) {
			r, err := open()
			if err != nil {
				return 0, 0, err
			}
			var got int64
			err = r.ForEachBatch(func(b []trace.Event) error { got += int64(len(b)); return nil })
			if err == nil && got != n {
				err = fmt.Errorf("decoded %d events, encoded %d", got, n)
			}
			rs = r.Stats()
			return got, 0, err
		}
	}
	if err := span("trace.decode", decode(func() (*trace.Reader, error) {
		return trace.NewBytesReader(data, trace.ReaderOptions{})
	})); err != nil {
		return err
	}
	if err := span("trace.decode_bufio", decode(func() (*trace.Reader, error) {
		return trace.NewReader(bytes.NewReader(data))
	})); err != nil {
		return err
	}
	if err := span("trace.ring", func() (int64, int64, error) {
		return n, 0, ringPass(ctx, buf, runtime.GOMAXPROCS(0))
	}); err != nil {
		return err
	}

	results := make(map[string]*core.Result)
	for _, c := range analyzeConfigs() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := span("core.analyze."+c.name, func() (int64, int64, error) {
			a := core.NewAnalyzer(c.cfg)
			if err := buf.ReplayBatches(ctx, a); err != nil {
				return 0, 0, err
			}
			r, err := a.Finish()
			results[c.name] = r
			runtime.ReadMemStats(&m1)
			return n, int64(m1.TotalAlloc - m0.TotalAlloc), err
		}); err != nil {
			return err
		}
	}
	want := results["dataflow-cons"]

	if err := ladderResolved(ctx, span, buf, n, results["all"]); err != nil {
		return err
	}

	jc := jobConfig()
	var d *core.ShardDelta
	if err := span("core.delta_build", func() (int64, int64, error) {
		var err error
		d, err = shard.BuildShardDelta(ctx, buf, jc, shard.Shard{Events: uint64(n)})
		return n, 0, err
	}); err != nil {
		return err
	}
	if err := span("core.delta_apply", func() (int64, int64, error) {
		part, _, err := shard.RunShardDelta(core.NewAnalyzer(jc), d, jc, rs, 0, 1, false)
		if err == nil && !reflect.DeepEqual(part.Final, want) {
			err = errors.New("spliced single-shard result differs from the analyzer's")
		}
		return n, 0, err
	}); err != nil {
		return err
	}
	buf, d = nil, nil

	if err := ladderShards(ctx, span, data, n, rs, want); err != nil {
		return err
	}
	if env != nil {
		tid, err := env.register(w.Name, data)
		if err != nil {
			return err
		}
		exp := &expected{traceID: tid, events: n, result: want, stats: rs}
		for _, speculate := range []bool{false, true} {
			if _, err := env.runJob(rec, exp, speculate); err != nil {
				return err
			}
		}
	}
	return nil
}

type spanFunc func(name string, fn func() (events, bytes int64, err error)) error

// ladderResolved times the resolve/schedule split: one resolution, the
// eight sweep windows scheduled one by one from the cached segments, then
// all eight in one gang. Every path must agree with the plain analyzer.
func ladderResolved(ctx context.Context, span spanFunc, buf *trace.EventBuffer, n int64, want *core.Result) error {
	var segs []*core.DepSegment
	var totals core.ResolveTotals
	if err := span("core.resolve", func() (int64, int64, error) {
		var words int64
		res := core.NewResolver(sweepBase(), func(s *core.DepSegment) error {
			segs = append(segs, s)
			words += int64(len(s.Code) + len(s.NewLocs))
			return nil
		})
		if err := buf.ReplayBatches(ctx, res); err != nil {
			return 0, 0, err
		}
		err := res.Flush()
		totals = res.Totals()
		return n, 4 * words, err
	}); err != nil {
		return err
	}
	cfgs := sweepConfigs()
	solo := make([]*core.Result, len(cfgs))
	for i, cfg := range cfgs {
		if err := span("core.schedule."+windowLabel(cfg.WindowSize), func() (int64, int64, error) {
			s := core.NewScheduler(cfg)
			for _, seg := range segs {
				if err := s.Apply(seg); err != nil {
					return 0, 0, err
				}
			}
			r, err := s.Finish(totals)
			solo[i] = r
			return n, 0, err
		}); err != nil {
			return err
		}
	}
	if full := solo[len(solo)-1]; full.CriticalPath != want.CriticalPath || full.Operations != want.Operations {
		return fmt.Errorf("resolved whole-trace schedule: critical path %d, %d ops; analyzer: %d, %d",
			full.CriticalPath, full.Operations, want.CriticalPath, want.Operations)
	}
	return span("core.gang", func() (int64, int64, error) {
		scheds := make([]*core.Scheduler, len(cfgs))
		for i, cfg := range cfgs {
			scheds[i] = core.NewScheduler(cfg)
		}
		g := core.NewSchedulerGang(scheds)
		if g == nil {
			return 0, 0, errors.New("sweep configurations are not gang-eligible")
		}
		for _, seg := range segs {
			if err := g.Apply(seg); err != nil {
				return 0, 0, err
			}
		}
		g.Seal()
		for i, s := range scheds {
			r, err := s.Finish(totals)
			if err != nil {
				return 0, 0, err
			}
			if r.CriticalPath != solo[i].CriticalPath {
				return 0, 0, fmt.Errorf("gang window %s: critical path %d, solo %d",
					windowLabel(cfgs[i].WindowSize), r.CriticalPath, solo[i].CriticalPath)
			}
		}
		return n * int64(len(cfgs)), 0, nil
	})
}

// ladderShards times the sharded path over the encoded trace: split,
// decode, the chained run and merge, the speculative build and splice, and
// the shard artifacts' persistence.
func ladderShards(ctx context.Context, span spanFunc, data []byte, n int64, rs trace.ReadStats, want *core.Result) error {
	jc := jobConfig()
	var plan *shard.Plan
	if err := span("shard.split", func() (int64, int64, error) {
		var err error
		plan, err = shard.Split(data, jobShards, shard.Options{})
		return 0, 0, err
	}); err != nil {
		return err
	}
	ns := len(plan.Shards)
	bufs := make([]*trace.EventBuffer, ns)
	if err := span("shard.decode", func() (int64, int64, error) {
		for i, sh := range plan.Shards {
			var err error
			if bufs[i], err = shard.DecodeShard(ctx, data, sh, false); err != nil {
				return 0, 0, err
			}
		}
		return n, 0, nil
	}); err != nil {
		return err
	}
	parts := make([]*shard.Result, ns)
	if err := span("shard.run", func() (int64, int64, error) {
		a := core.NewAnalyzer(jc)
		for i, sh := range plan.Shards {
			var err error
			if parts[i], _, err = shard.RunShard(ctx, a, bufs[i], jc, sh, ns, false); err != nil {
				return 0, 0, err
			}
		}
		return n, 0, nil
	}); err != nil {
		return err
	}
	if err := span("shard.merge", func() (int64, int64, error) {
		merged, mrs, err := shard.Merge(parts)
		if err == nil && (!reflect.DeepEqual(merged, want) || mrs != rs) {
			err = errors.New("merged chained result differs from the analyzer's")
		}
		return 0, 0, err
	}); err != nil {
		return err
	}
	deltas := make([]*shard.Delta, ns)
	for i, sh := range plan.Shards {
		if err := span("core.delta_build", func() (int64, int64, error) {
			d, err := shard.BuildShardDelta(ctx, bufs[i], jc, sh)
			deltas[i] = &shard.Delta{Index: i, Shards: ns, Config: jc, ReadStats: bufs[i].Stats(), D: d}
			return int64(sh.Events), 0, err
		}); err != nil {
			return err
		}
	}
	if err := span("shard.splice", func() (int64, int64, error) {
		_, spliced, srs, err := shard.Splice(deltas)
		if err == nil && (!reflect.DeepEqual(spliced, want) || srs != rs) {
			err = errors.New("spliced speculative result differs from the analyzer's")
		}
		return 0, 0, err
	}); err != nil {
		return err
	}
	return span("shard.persist", func() (int64, int64, error) {
		var total int64
		for _, p := range parts {
			var b bytes.Buffer
			if err := shard.WriteResult(&b, p, nil); err != nil {
				return 0, 0, err
			}
			total += int64(b.Len())
			if _, _, err := shard.ReadResult(&b); err != nil {
				return 0, 0, err
			}
		}
		for _, d := range deltas {
			var b bytes.Buffer
			if err := shard.WriteDelta(&b, d); err != nil {
				return 0, 0, err
			}
			total += int64(b.Len())
			if _, err := shard.ReadDelta(&b); err != nil {
				return 0, 0, err
			}
		}
		return 0, total, nil
	})
}

// ringPass pushes the buffer through a trace.Ring to consumers that do
// nothing with the batches.
func ringPass(ctx context.Context, buf *trace.EventBuffer, consumers int) error {
	ring := trace.NewRing(ctx, consumers, trace.RingOptions{})
	errs := make([]error, consumers)
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := ring.Consumer(i)
			defer c.Close()
			for {
				if _, err := c.Next(); err != nil {
					if err != io.EOF {
						errs[i] = err
					}
					return
				}
			}
		}(i)
	}
	err := buf.ReplayBatches(ctx, ring)
	ring.CloseSend(err)
	wg.Wait()
	return errors.Join(append(errs, err)...)
}

// perLayer turns the traced run's spans into the per-layer metrics.
func perLayer(spans []Span, in ladderInput) map[string]float64 {
	agg := aggregate(spans, false)
	tagged := aggregate(spans, true)
	get := func(name string) *spanAgg {
		if a := agg[name]; a != nil {
			return a
		}
		return &spanAgg{}
	}
	ns := func(name string) float64 { return get(name).nsPerEvent() }
	medMs := func(name string) float64 { return 1000 * median(get(name).durs) }
	perEvent := func(a *spanAgg) float64 { return float64(a.bytes) / float64(a.events) }

	m := map[string]float64{
		"minic.compile_ms":                float64(get("minic.build").selfNs) / 1e6,
		"cpu.sim_ns_per_event":            ns("cpu.run"),
		"trace.encode_ns_per_event":       ns("trace.encode"),
		"trace.bytes_per_event":           perEvent(get("trace.encode")),
		"trace.decode_ns_per_event":       ns("trace.decode"),
		"trace.decode_bufio_ns_per_event": ns("trace.decode_bufio"),
		"trace.ring_ns_per_event":         ns("trace.ring"),
		"core.resolve_ns_per_event":       ns("core.resolve"),
		"core.record_bytes_per_event":     perEvent(get("core.resolve")),
		"core.gang_ns_per_event_config":   ns("core.gang"),
		"core.delta_build_ns_per_event":   ns("core.delta_build"),
		"core.delta_apply_ns_per_event":   ns("core.delta_apply"),
		"harness.experiment_s.table3":     median(get("harness.table3").durs),
		"harness.experiment_s.table4":     median(get("harness.table4").durs),
		"harness.experiment_s.figure7":    median(get("harness.figure7").durs),
		"harness.render_ms":               medMs("harness.render"),
		"shard.split_ms":                  medMs("shard.split"),
		"shard.decode_ms":                 medMs("shard.decode"),
		"shard.run_ns_per_event":          ns("shard.run"),
		"shard.splice_ms":                 medMs("shard.splice"),
		"shard.merge_ms":                  medMs("shard.merge"),
		"shard.persist_ms":                medMs("shard.persist"),
		"shard.artifact_bytes":            float64(get("shard.persist").bytes) / float64(get("shard.persist").n),
		"serve.submit_ms":                 medMs("serve.submit"),
		"serve.queue_wait_ms":             medMs("serve.queue_wait"),
		"serve.run_ms":                    medMs("serve.run"),
		"serve.result_fetch_ms":           medMs("serve.result_fetch"),
		"serve.job_p50_s.chained":         median(get("serve.latency.chained").durs),
		"serve.job_p50_s.speculative":     median(get("serve.latency.speculative").durs),
	}
	var alloc spanAgg
	for _, c := range analyzeConfigs() {
		a := get("core.analyze." + c.name)
		m["core.analyze_ns_per_event."+c.name] = a.nsPerEvent()
		alloc.bytes += a.bytes
		alloc.events += a.events
	}
	m["core.analyze_alloc_bytes_per_event"] = perEvent(&alloc)
	for _, w := range sweepWindows {
		m["core.schedule_ns_per_event."+windowLabel(w)] = ns("core.schedule." + windowLabel(w))
	}

	// The engine's ideal is the isolated stage self-times spread across
	// every processor; the rest of its wall time is coordination and wait.
	nproc := float64(runtime.GOMAXPROCS(0))
	var wall, ideal float64
	if in.sweepSpan != "" {
		wall = median(get(in.sweepSpan).durs)
		perEv := ns("trace.decode") + ns("core.resolve")
		for _, w := range sweepWindows {
			perEv += ns("core.schedule." + windowLabel(w))
		}
		for _, p := range in.programs {
			ideal += perEv * in.fullEvents[p.Name]
		}
	} else {
		wall = median(get("harness.table3").durs) + median(get("harness.table4").durs) + median(get("harness.figure7").durs)
		for _, p := range in.programs {
			rate := func(span string) float64 {
				if a := tagged[span+"@"+p.Name]; a != nil {
					return a.nsPerEvent()
				}
				return 0
			}
			// Each experiment simulates once; Table 3 analyzes the "all"
			// and optimistic configurations, Table 4 the four renaming
			// conditions, Figure 7 the profiled dataflow limit.
			perEv := 3*rate("cpu.run") + 2*rate("core.analyze.all") + rate("core.analyze.dataflow-opt") +
				rate("core.analyze.norename") + rate("core.analyze.regs") + rate("core.analyze.regs-stack") +
				rate("core.analyze.dataflow-cons")
			ideal += perEv * in.fullEvents[p.Name]
		}
	}
	m["harness.engine_wait_frac"] = 1 - ideal/1e9/nproc/wall
	return m
}
