package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"paragraph/internal/cpu"
	"paragraph/internal/harness"
	"paragraph/internal/minic"
	"paragraph/internal/workloads"
)

// goldenDir holds the committed renderings the paper-suite output must
// match byte for byte.
const goldenDir = "internal/harness/testdata/golden"

// setupPaperSuite prepares an in-process harness.Suite over all ten
// analogues at scale 1. Set-up compiles every analogue and simulates it
// once without a sink, to count the events each pass analyzes.
func setupPaperSuite(ctx context.Context, seed int64, clients int) (*instance, error) {
	golden := make(map[string][]byte)
	for _, f := range []string{"table3.txt", "table4.txt", "figure7.txt"} {
		b, err := os.ReadFile(filepath.Join(goldenDir, f))
		if err != nil {
			return nil, err
		}
		golden[f] = b
	}
	ws := workloads.All()
	events := make(map[string]float64)
	var total float64
	for _, w := range ws {
		n, err := simulate(w)
		if err != nil {
			return nil, err
		}
		events[w.Name] = float64(n)
		total += float64(n)
	}
	// Table 3 analyzes two configurations, Table 4 four and Figure 7 one.
	const configsPerPass = 2 + 4 + 1
	op := func(ctx context.Context, _ int, rec *Recorder) (opStat, error) {
		s := harness.NewSuite(1)
		s.Parallelism, s.Concurrency = runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0)
		pass := rec.Begin("paper-suite.pass", 0)
		defer rec.End(pass, "", int64(total*configsPerPass), 0)
		var t3 []harness.Table3Row
		var t4 []harness.Table4Row
		var f7 []harness.ProfileResult
		var err error
		for _, step := range []struct {
			span string
			run  func() error
		}{
			{"harness.table3", func() (e error) { t3, e = s.Table3(ctx); return }},
			{"harness.table4", func() (e error) { t4, e = s.Table4(ctx); return }},
			{"harness.figure7", func() (e error) { f7, e = s.Figure7(ctx); return }},
		} {
			id := rec.Begin(step.span, pass)
			err = step.run()
			rec.End(id, "", 0, 0)
			if err != nil {
				return opStat{}, fmt.Errorf("%s: %w", step.span, err)
			}
		}
		var b3, b4, b7 bytes.Buffer
		id := rec.Begin("harness.render", pass)
		if err := harness.RenderTable3(&b3, t3); err != nil {
			return opStat{}, err
		}
		if err := harness.RenderTable4(&b4, t4); err != nil {
			return opStat{}, err
		}
		if err := harness.RenderFigure7(&b7, f7); err != nil {
			return opStat{}, err
		}
		rec.End(id, "", 0, 0)
		for f, got := range map[string][]byte{"table3.txt": b3.Bytes(), "table4.txt": b4.Bytes(), "figure7.txt": b7.Bytes()} {
			if !bytes.Equal(got, golden[f]) {
				return opStat{}, fmt.Errorf("paper-suite: %s differs from %s/%s\n%s", f, goldenDir, f, diffLines(string(golden[f]), string(got)))
			}
		}
		return opStat{events: total * configsPerPass}, nil
	}
	return &instance{
		op: op,
		ladder: ladderInput{
			programs:   ws,
			fullEvents: events,
			skipSuite:  true, // the traced passes already time the experiments
		},
		close: func() {},
	}, nil
}

// simulate compiles w at scale 1 and runs it without a trace sink,
// returning its dynamic instruction count.
func simulate(w *workloads.Workload) (uint64, error) {
	prog, err := minic.Build(w.Source(1), minic.Options{})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", w.Name, err)
	}
	m, err := cpu.New(prog, cpu.WithStdout(io.Discard))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", w.Name, err)
	}
	n, err := m.Run(0)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", w.Name, err)
	}
	return n, nil
}

// diffLines describes the first few differing lines of want and got.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		fmt.Fprintf(&b, "  line %d: want %q\n          got  %q\n", i+1, wl, gl)
		if shown++; shown == 3 {
			b.WriteString("  ...\n")
			break
		}
	}
	return b.String()
}
