// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time, checks every output it produces, and prints each metric by
// name with its unit, a run record stamped with the machine fingerprint,
// and, as the last line, a JSON result:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 36 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it records spans around every call it makes into the program,
// replays the workload's input through each layer in isolation (the stage
// ladder), and reports the per-layer metrics and the tracing overhead.
//
//	bash perfbench/run.sh compare base.txt head.txt
//
// compares two sets of captured runs (see compare.go).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// processes is how many measuring processes an untraced run starts, one
// after another, each for its share of the run's seconds. Timings vary more
// between processes than within one (each process lays out its heap
// differently), so pooling several makes one run comparable with the next.
const processes = 3

// instance is one set-up workload, ready to run operations.
type instance struct {
	// op runs one operation (a suite pass, a sweep, a job) and checks its
	// output.
	op func(ctx context.Context, client int, rec *Recorder) (opStat, error)
	// warmup is how many untimed operations run before timing starts.
	warmup int
	// ladder is the workload's input for the stage ladder.
	ladder ladderInput
	// layerExtras adds per-layer metrics only the workload itself can
	// measure (it may be nil).
	layerExtras func(m map[string]float64)
	close       func()
}

// opStat is what one operation reports: the trace events × configurations
// it analyzed and, when the operation's latency is not its whole duration
// (a job's latency ends at its terminal state, before the result fetch),
// that latency in seconds.
type opStat struct {
	events  float64
	latency float64
}

type workloadDef struct {
	name string
	// clients is the closed loop's client count; 0 means one per
	// processor. The suite and the sweep parallelize internally, so one
	// client runs them as their CLIs do.
	clients int
	setup   func(ctx context.Context, seed int64, clients int) (*instance, error)
}

var workloadDefs = []workloadDef{
	{"paper-suite", 1, setupPaperSuite},
	{"window-sweep", 1, setupWindowSweep},
	{"serve-jobs", 0, setupServeJobs},
}

func findWorkload(name string) (*workloadDef, int, error) {
	for i := range workloadDefs {
		if d := &workloadDefs[i]; d.name == name {
			clients := d.clients
			if clients == 0 {
				clients = runtime.GOMAXPROCS(0)
			}
			return d, clients, nil
		}
	}
	return nil, 0, fmt.Errorf("unknown workload %q", name)
}

// outcome accumulates a run's attempted and failed operations; failures
// print a short diagnostic to stderr (the first few only).
type outcome struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

func (o *outcome) note(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		if o.failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
		}
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run: paper-suite, window-sweep or serve-jobs")
		seed    = flag.Int64("seed", 1, "seed for the workload's inputs")
		seconds = flag.Int("seconds", 10, "how long to measure")
		traced  = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		childMs = flag.Int("child-ms", 0, "internal: measure for this many milliseconds as one process of a run and print its raw samples")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	var err error
	if *childMs > 0 {
		err = runChild(*name, *seed, time.Duration(*childMs)*time.Millisecond, os.Stdout)
	} else {
		err = run(*name, *seed, *seconds, *traced == 1, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setup sets the workload up, timing it in host seconds, and runs the
// untimed warm-up operations.
func setup(ctx context.Context, def *workloadDef, seed int64, clients int, out *outcome) (*instance, float64, error) {
	t0, s0 := time.Now(), stealSeconds()
	inst, err := def.setup(ctx, seed, clients)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	setupS := hostSeconds(time.Since(t0).Seconds(), stealSeconds()-s0)
	for i := 0; i < inst.warmup; i++ {
		_, err := inst.op(ctx, 0, nil)
		out.note(err)
	}
	return inst, setupS, nil
}

// childResult is what one measuring process reports to its run.
type childResult struct {
	SetupS    float64    `json:"setup_s"`
	PeakRSSMB float64    `json:"peak_rss_mb"`
	Loop      loopResult `json:"loop"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
}

// runChild is one measuring process of an untraced run.
func runChild(name string, seed int64, d time.Duration, stdout io.Writer) error {
	def, clients, err := findWorkload(name)
	if err != nil {
		return err
	}
	ctx := context.Background()
	out := &outcome{}
	inst, setupS, err := setup(ctx, def, seed, clients, out)
	if err != nil {
		return err
	}
	defer inst.close()
	lr := runLoop(ctx, inst, clients, d, nil, out)
	return json.NewEncoder(stdout).Encode(childResult{
		SetupS: setupS, PeakRSSMB: peakRSSMB(), Loop: lr, Attempted: out.attempted, Failed: out.failed,
	})
}

// runProcesses measures an untraced run in measuring processes started one
// after another, and pools their samples.
func runProcesses(name string, seed int64, seconds int, out *outcome) (lr loopResult, setups, rss []float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return lr, nil, nil, err
	}
	ms := seconds * 1000 / processes
	for k := 0; k < processes; k++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--child-ms", strconv.Itoa(ms))
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return lr, nil, nil, fmt.Errorf("measuring process %d: %w", k, err)
		}
		var c childResult
		if err := json.Unmarshal(raw, &c); err != nil {
			return lr, nil, nil, fmt.Errorf("measuring process %d: %w", k, err)
		}
		out.attempted += c.Attempted
		out.failed += c.Failed
		setups = append(setups, c.SetupS)
		rss = append(rss, c.PeakRSSMB)
		lr.Durs = append(lr.Durs, c.Loop.Durs...)
		lr.Events += c.Loop.Events
		lr.Elapsed += c.Loop.Elapsed
		lr.Steal += c.Loop.Steal
		lr.AllocBytes += c.Loop.AllocBytes
	}
	return lr, setups, rss, nil
}

func run(name string, seed int64, seconds int, traced bool, stdout io.Writer) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	def, clients, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: must be at least 1", seconds)
	}
	out := &outcome{}
	var got map[string]float64
	units := make(map[string]string)
	var human []string
	if !traced {
		lr, setups, rss, err := runProcesses(name, seed, seconds, out)
		if err != nil {
			return err
		}
		n := float64(len(lr.Durs))
		got = map[string]float64{
			"setup_s":      median(setups),
			"events_per_s": lr.eventsPerS(),
			"job_p50_s":    median(lr.Durs),
			"job_p90_s":    percentile(lr.Durs, 90),
			"jobs_per_s":   n / lr.Elapsed,
			"peak_rss_mb":  median(rss),
			"alloc_mb":     lr.AllocBytes / n / 1e6,
		}
		for _, m := range spec.EndToEnd {
			units[m.Name] = m.Unit
		}
		human = append(human,
			fmt.Sprintf("set-up: n=%d median=%.4gs (one per measuring process)", len(setups), median(setups)),
			lr.latencyLine(),
			fmt.Sprintf("host steal: %.3gs of CPU time withheld by the hypervisor during %.4gs timed, excluded from every timing", lr.Steal, lr.Elapsed))
	} else {
		ctx := context.Background()
		inst, _, err := setup(ctx, def, seed, clients, out)
		if err != nil {
			return err
		}
		defer inst.close()
		d := time.Duration(seconds) * time.Second
		untraced := runLoop(ctx, inst, clients, d/2, nil, out)
		rec := newRecorder(fmt.Sprintf("%s-seed%d", name, seed))
		tracedLoop := runLoop(ctx, inst, clients, d/2, rec, out)
		extras, err := runLadder(ctx, rec, inst.ladder)
		out.note(err)
		got = perLayer(rec.Spans(), inst.ladder)
		for k, v := range extras {
			got[k] = v
		}
		if inst.layerExtras != nil {
			inst.layerExtras(got)
		}
		got["go.gc_cpu_frac"] = tracedLoop.GCFrac
		got["bench.trace_overhead_frac"] = 1 - tracedLoop.eventsPerS()/untraced.eventsPerS()
		for _, m := range spec.PerLayer {
			units[m.Name] = m.Unit
		}
		human = append(human, fmt.Sprintf("tracing overhead: %.2f%% of events_per_s (untraced %.4g, traced %.4g)",
			100*got["bench.trace_overhead_frac"], untraced.eventsPerS(), tracedLoop.eventsPerS()))
		if path, err := writeSpans(rec, name, seed); err == nil {
			human = append(human, "spans: "+path)
		} else {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}

	// Every metric the spec lists must have been measured, and nothing else.
	var missing, extra []string
	for n := range units {
		if _, ok := got[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range got {
		if _, ok := units[n]; !ok {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return fmt.Errorf("metrics do not match BENCHMARK.json: missing %v, unlisted %v", missing, extra)
	}

	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	errorRate := 0.0
	if out.attempted > 0 {
		errorRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %d  trace %v  clients %d\n", name, seed, seconds, traced, clients)
	targets, err := loadTargets()
	if err != nil {
		return err
	}
	for _, n := range names {
		// A per-layer metric shows which end-to-end metric it should move.
		var moves []string
		for _, t := range targets.PerLayer[n] {
			moves = append(moves, t.Metric+"/"+t.Workload)
		}
		line := fmt.Sprintf("  %-44s %14.6g %-8s %s", n, got[n], units[n], strings.Join(moves, " "))
		fmt.Fprintln(stdout, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(stdout, "  %-44s %14.6g %s (%d failed of %d attempted)\n", "error_rate", errorRate, "ratio", out.failed, out.attempted)
	for _, h := range human {
		fmt.Fprintln(stdout, "  "+h)
	}
	recJSON, err := json.Marshal(runRecord{
		Fingerprint: fingerprint(clients, seed), Workload: name, Traced: traced,
		Attempted: out.attempted, Failed: out.failed, Metrics: got,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(recJSON))

	// A speed is never reported for wrong output.
	if out.failed > 0 {
		return fmt.Errorf("%d of %d operations failed or produced wrong output", out.failed, out.attempted)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: out.attempted, Metrics: map[string]value{}}
	for _, n := range names {
		if math.IsNaN(got[n]) || math.IsInf(got[n], 0) {
			return fmt.Errorf("metric %s is %v", n, got[n])
		}
		result.Metrics[n] = value{got[n], units[n]}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// loopResult is what one timed closed loop measured. Timings are host
// seconds (see hostSeconds).
type loopResult struct {
	Durs       []float64 `json:"durs"` // seconds per successful operation
	Events     float64   `json:"events"`
	Elapsed    float64   `json:"elapsed"` // start to the last completion
	Steal      float64   `json:"steal"`   // CPU seconds stolen from the host
	AllocBytes float64   `json:"alloc_bytes"`
	GCFrac     float64   `json:"gc_frac"`
}

// runLoop runs a closed loop: each of clients goroutines starts its next
// operation when the previous one completes, as long as that operation,
// if it takes as long as the last one, would end within d. Every client
// runs at least one operation.
func runLoop(ctx context.Context, inst *instance, clients int, d time.Duration, rec *Recorder, out *outcome) loopResult {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	gc0 := gcSample()
	steal0 := stealSeconds()
	var (
		mu      sync.Mutex
		lr      loopResult
		lastEnd time.Time
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				t0, s0 := time.Now(), stealSeconds()
				st, err := inst.op(ctx, c, rec)
				t1, s1 := time.Now(), stealSeconds()
				out.note(err)
				wall := t1.Sub(t0).Seconds()
				if st.latency == 0 {
					st.latency = wall
				}
				// The op's share of stolen time, spread over its latency.
				st.latency *= hostSeconds(wall, s1-s0) / wall
				mu.Lock()
				if err == nil {
					lr.Durs = append(lr.Durs, st.latency)
					lr.Events += st.events
				}
				if t1.After(lastEnd) {
					lastEnd = t1
				}
				mu.Unlock()
				if t1.Sub(start)+t1.Sub(t0) > d {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	lr.Steal = stealSeconds() - steal0
	lr.Elapsed = hostSeconds(lastEnd.Sub(start).Seconds(), lr.Steal)
	runtime.ReadMemStats(&ms1)
	lr.AllocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	lr.GCFrac = gcSample().fracSince(gc0)
	return lr
}

func (lr loopResult) eventsPerS() float64 { return lr.Events / lr.Elapsed }

// latencyLine applies the reporting rule for timings: the median and the
// highest percentile with at least ten samples beyond it, with the count.
func (lr loopResult) latencyLine() string {
	n := len(lr.Durs)
	if p, v, ok := tailPercentile(lr.Durs); ok {
		return fmt.Sprintf("job latency: n=%d p50=%.4gs p%g=%.4gs", n, median(lr.Durs), p, v)
	}
	return fmt.Sprintf("job latency: n=%d p50=%.4gs (fewer than 20 samples: no tail percentile has ten beyond it)", n, median(lr.Durs))
}

// stealSeconds reads the CPU time the hypervisor has withheld from this
// machine's processors while they were ready to run (the steal column of
// /proc/stat, in USER_HZ ticks of 10ms); 0 where it is not reported.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// hostSeconds converts a wall-clock interval into host seconds: the wall
// time minus the CPU time stolen during it, spread across the processors.
// On a shared virtual machine steal comes and goes with other tenants'
// load; excluding it keeps one run comparable with the next, and on a
// dedicated host (no steal) host seconds are wall seconds. The result never
// drops below half the wall time, which the 10ms steal ticks could otherwise
// undercut on short intervals.
func hostSeconds(wall, stolen float64) float64 {
	h := wall - stolen/float64(runtime.NumCPU())
	return max(h, wall/2)
}

// gcCPU samples the runtime's cumulative GC and total CPU time estimates.
type gcCPU struct{ gc, total float64 }

func gcSample() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g gcCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.total = s[1].Value.Float64()
	}
	return g
}

func (g gcCPU) fracSince(g0 gcCPU) float64 {
	if g.total <= g0.total {
		return 0
	}
	return (g.gc - g0.gc) / (g.total - g0.total)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// benchOut is the directory for the benchmark's scratch files and spans,
// inside the checkout.
func benchOut() string {
	if d := os.Getenv("BENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

func writeSpans(rec *Recorder, name string, seed int64) (string, error) {
	dir := filepath.Join(benchOut(), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
