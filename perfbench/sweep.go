package main

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"paragraph/internal/core"
	"paragraph/internal/cpu"
	"paragraph/internal/harness"
	"paragraph/internal/minic"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// sweepWindows is the 8-window sweep of `paragraph -sweep-windows`
// (0 is the whole trace).
var sweepWindows = []int{1, 32, 128, 512, 2048, 8192, 65536, 0}

// sweepExpect pins the espressox sweep's per-window results at scale 1.
var sweepExpect = struct {
	events       uint64
	operations   uint64
	criticalPath []int64
}{
	events:       6_694_396,
	operations:   5_267_780,
	criticalPath: []int64{5_801_471, 1_245_419, 706_106, 428_332, 234_907, 79_327, 20_475, 6_931},
}

// sweepBase is the configuration `paragraph` analyzes by default: full
// renaming, conservative system calls, no profile.
func sweepBase() core.Config {
	c := core.Dataflow(core.SyscallConservative)
	c.Profile = false
	return c
}

func sweepConfigs() []core.Config {
	cfgs := make([]core.Config, len(sweepWindows))
	for i, w := range sweepWindows {
		cfgs[i] = sweepBase()
		cfgs[i].WindowSize = w
	}
	return cfgs
}

func windowLabel(w int) string {
	if w == 0 {
		return "wfull"
	}
	return fmt.Sprintf("w%d", w)
}

// encodeWorkload compiles w at scale 1 and simulates it into an in-memory
// PGTRACE2 trace.
func encodeWorkload(w *workloads.Workload) ([]byte, error) {
	prog, err := minic.Build(w.Source(1), minic.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	m, err := cpu.New(prog, cpu.WithTrace(tw), cpu.WithStdout(io.Discard))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if _, err := m.Run(0); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// setupWindowSweep encodes the espressox trace once and holds it in memory;
// each operation decodes it zero-copy and sweeps eight windows through
// harness.FanOutResolved, as `paragraph -trace -mmap -sweep-windows` does.
func setupWindowSweep(ctx context.Context, seed int64, clients int) (*instance, error) {
	w, ok := workloads.ByName("espressox")
	if !ok {
		return nil, fmt.Errorf("no espressox workload")
	}
	data, err := encodeWorkload(w)
	if err != nil {
		return nil, err
	}
	cfgs := sweepConfigs()
	perOp := float64(sweepExpect.events) * float64(len(cfgs))
	op := func(ctx context.Context, _ int, rec *Recorder) (opStat, error) {
		id := rec.Begin("harness.fan_out_resolved", 0)
		produce := func(rs *harness.ResolverStream) error {
			pid := rec.Begin("sweep.produce", id)
			defer rec.End(pid, "", int64(sweepExpect.events), 0)
			r, err := trace.NewBytesReader(data, trace.ReaderOptions{})
			if err != nil {
				return err
			}
			if err := r.ForEachBatch(rs.Events); err != nil {
				return err
			}
			rs.SetStats(r.Stats())
			return nil
		}
		res, _, err := harness.FanOutResolved(ctx, produce, cfgs, 0)
		rec.End(id, "", int64(perOp), 0)
		if err != nil {
			return opStat{}, err
		}
		for i, r := range res {
			if r.Instructions != sweepExpect.events || r.Operations != sweepExpect.operations || r.CriticalPath != sweepExpect.criticalPath[i] {
				return opStat{}, fmt.Errorf("window-sweep: window %s: got %d events, %d ops, critical path %d; want %d, %d, %d",
					windowLabel(sweepWindows[i]), r.Instructions, r.Operations, r.CriticalPath,
					sweepExpect.events, sweepExpect.operations, sweepExpect.criticalPath[i])
			}
		}
		return opStat{events: perOp}, nil
	}
	return &instance{
		op:     op,
		warmup: 1,
		ladder: ladderInput{
			programs:   []*workloads.Workload{w},
			fullEvents: map[string]float64{w.Name: float64(sweepExpect.events)},
			sweepSpan:  "harness.fan_out_resolved",
		},
		close: func() {},
	}, nil
}
