package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// runRecord is the full account of one run, printed by every run on the
// line before its result line and read back by the comparator.
type runRecord struct {
	Fingerprint Fingerprint        `json:"fingerprint"`
	Workload    string             `json:"workload"`
	Traced      bool               `json:"traced"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
}

// readRecords collects every run record found in the named files. A file
// may hold captured benchmark output (records among other lines) or plain
// JSON lines of records.
func readRecords(paths []string) ([]runRecord, error) {
	var out []runRecord
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		recs, err := scanRecords(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, recs...)
	}
	return out, nil
}

func scanRecords(r io.Reader) ([]runRecord, error) {
	var out []runRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, `{"fingerprint"`) {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// verdict is the comparator's finding for one workload and metric.
type verdict struct {
	Workload, Metric string
	Base, Head       []float64
	WinFrac          float64
	Verdict          string // gain, regression, unresolved, no change
}

var errFingerprint = errors.New("run records come from different machines or settings")

// compareRuns compares base (the parent) with head (the change) for every
// workload and end-to-end metric present in both, using the metric's
// direction and bound from the spec. Runs are paired by seed where seeds
// match, otherwise in order. It refuses a workload's records whose machine
// keys differ (the client count is per workload, so keys are too).
//
//   - gain: head wins at least 9/10 of all pairs (ties count for neither)
//     and the medians differ by more than base's interquartile range.
//   - regression: head's median is worse than base's by more than the bound.
//   - unresolved: either side's interquartile range, as a share of its
//     median, is wider than the bound, unless every head run is better
//     than every base run.
//   - no change: none of the above.
func compareRuns(spec *benchSpec, base, head []runRecord) ([]verdict, error) {
	byWorkload := func(rs []runRecord) map[string][]runRecord {
		m := make(map[string][]runRecord)
		for _, r := range rs {
			if !r.Traced {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	bw, hw := byWorkload(base), byWorkload(head)
	var names []string
	for w := range bw {
		if _, ok := hw[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var out []verdict
	for _, w := range names {
		b, h := bw[w], hw[w]
		key := b[0].Fingerprint.machineKey()
		for _, r := range append(append([]runRecord(nil), b...), h...) {
			if k := r.Fingerprint.machineKey(); k != key {
				return nil, fmt.Errorf("%s: %w:\n  %s\n  %s", w, errFingerprint, key, k)
			}
		}
		pairs := pairRuns(b, h)
		for _, m := range spec.EndToEnd {
			v := verdict{Workload: w, Metric: m.Name}
			for _, r := range b {
				if x, ok := r.Metrics[m.Name]; ok {
					v.Base = append(v.Base, x)
				}
			}
			for _, r := range h {
				if x, ok := r.Metrics[m.Name]; ok {
					v.Head = append(v.Head, x)
				}
			}
			if len(v.Base) == 0 || len(v.Head) == 0 {
				continue
			}
			var wins, n int
			for _, p := range pairs {
				bx, ok1 := p[0].Metrics[m.Name]
				hx, ok2 := p[1].Metrics[m.Name]
				if !ok1 || !ok2 {
					continue
				}
				n++
				if better(m, hx, bx) {
					wins++
				}
			}
			if n > 0 {
				v.WinFrac = float64(wins) / float64(n)
			}
			v.Verdict = judge(m, v.Base, v.Head, v.WinFrac)
			out = append(out, v)
		}
	}
	return out, nil
}

// pairRuns pairs base and head runs by seed when every head seed has a base
// twin, otherwise by position.
func pairRuns(base, head []runRecord) [][2]runRecord {
	bySeed := make(map[int64]runRecord)
	for _, r := range base {
		bySeed[r.Fingerprint.Seed] = r
	}
	var pairs [][2]runRecord
	for _, r := range head {
		b, ok := bySeed[r.Fingerprint.Seed]
		if !ok {
			pairs = nil
			break
		}
		pairs = append(pairs, [2]runRecord{b, r})
	}
	if pairs != nil {
		return pairs
	}
	for i := 0; i < len(base) && i < len(head); i++ {
		pairs = append(pairs, [2]runRecord{base[i], head[i]})
	}
	return pairs
}

// better reports whether x is strictly better than y under m's direction.
func better(m metricSpec, x, y float64) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

func judge(m metricSpec, base, head []float64, winFrac float64) string {
	bm, hm := median(base), median(head)
	bq1, bq3 := quartiles(base)
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if !better(m, h, b) {
				allBetter = false
			}
		}
	}
	gain := hm - bm
	if m.Better == "lower" {
		gain = -gain
	}
	switch {
	case math.Max(relSpread(base), relSpread(head)) > m.Bound && !allBetter:
		return "unresolved"
	case winFrac >= 0.9 && gain > bq3-bq1:
		return "gain"
	case -gain > m.Bound*math.Abs(bm):
		return "regression"
	}
	return "no change"
}

func runCompare(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: compare BASE_RUNS HEAD_RUNS (files of captured benchmark output)")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	base, err := readRecords(strings.Split(args[0], ","))
	if err != nil {
		return err
	}
	head, err := readRecords(strings.Split(args[1], ","))
	if err != nil {
		return err
	}
	vs, err := compareRuns(spec, base, head)
	if err != nil {
		return err
	}
	if len(vs) == 0 {
		return errors.New("no workload has untraced runs on both sides")
	}
	fmt.Fprintf(stdout, "%-13s %-12s %28s %28s %6s  %s\n", "workload", "metric",
		"base median [q1 q3] n", "head median [q1 q3] n", "wins", "verdict")
	for _, v := range vs {
		fmt.Fprintf(stdout, "%-13s %-12s %28s %28s %6.2f  %s\n", v.Workload, v.Metric,
			summarize(v.Base), summarize(v.Head), v.WinFrac, v.Verdict)
	}
	return nil
}

func summarize(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", median(xs), q1, q3, len(xs))
}
