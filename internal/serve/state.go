// Package serve composes the shard library, checkpoint persistence and the
// remote range reader into the pgserved analysis service: traces are
// registered (local paths or remote URLs), jobs queue analyses of them, and
// a bounded supervised worker pool runs each job's shard chain with
// per-shard retry, panic containment and crash-safe state.
//
// Every piece of job state that matters lives on disk, written atomically:
// the job spec, the shard plan, each completed shard's result+checkpoint
// file, and the final merged result. A process kill at any instant leaves
// either the old file or the new one, never a torn write, so a restarted
// daemon resumes every in-flight job from its last completed shard and
// finishes with output byte-identical to an uninterrupted run.
package serve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"paragraph/internal/core"
	"paragraph/internal/shard"
	"paragraph/internal/trace"
)

// TraceInfo is one registered trace.
type TraceInfo struct {
	ID       string `json:"id"`
	Location string `json:"location"` // local path or http(s) URL
	Bytes    int64  `json:"bytes"`
	Remote   bool   `json:"remote"`
}

// JobSpec is the persisted definition of one analysis job. It is saved
// before the job is queued, so a crashed daemon knows every job it owed.
type JobSpec struct {
	ID       string      `json:"id"`
	TraceID  string      `json:"trace"`
	Config   core.Config `json:"config"`
	Shards   int         `json:"shards"`
	Degraded bool        `json:"degraded"` // degraded trace read mode
	// Speculate runs the shards concurrently: supervised parallel delta
	// builds (each with the usual attempt budget and panic containment)
	// followed by a sequential splice that persists the same per-shard
	// result files the chained path writes, so resume and degradation
	// behave identically.
	Speculate bool `json:"speculate,omitempty"`
	// Priority orders the job admission queue: higher runs first, ties
	// run in submission order. Persisted so a recovered job re-queues at
	// its original priority.
	Priority int `json:"priority,omitempty"`
}

// DegradedMark is the persisted terminal marker of a job whose shard chain
// broke: the failing shard, how hard it was tried, and why it gave up.
// Shards completed before the break keep their result files.
type DegradedMark struct {
	Shard    int    `json:"shard"`
	Attempts int    `json:"attempts"`
	Reason   string `json:"reason"`
}

// JobResult is the final output of a completed job: the merged analysis
// result and the summed per-shard read accounting — exactly what a
// monolithic run of the same trace and config produces.
type JobResult struct {
	Result    *core.Result
	ReadStats trace.ReadStats
}

// resultMagic versions the persisted job-result format (gob, like shard
// results: the histogram states need exact float64 round-trips).
const resultMagic = "pgserved-result-v1\n"

// errNoResult classifies a job-result file that decodes but carries no
// analysis result: gob round-trips a nil Result without complaint, and
// every reader of a loaded result dereferences it.
var errNoResult = errors.New("job-result file holds no analysis result")

// state is the on-disk layout under the daemon's state directory:
//
//	traces.json                  registered traces
//	jobs/<id>/spec.json          job definition
//	jobs/<id>/plan.json          shard plan (written once, reused on resume)
//	jobs/<id>/shard-N.pgsr       shard result + outgoing checkpoint
//	jobs/<id>/shard-N.pgsd       speculative shard delta (Speculate jobs only)
//	jobs/<id>/result.pgr         merged result; its existence marks the job done
//	jobs/<id>/degraded.json      terminal degradation marker
type state struct {
	dir string
}

func newState(dir string) (*state, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: state directory not set")
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating state directory: %w", err)
	}
	return &state{dir: dir}, nil
}

func (st *state) tracesPath() string        { return filepath.Join(st.dir, "traces.json") }
func (st *state) jobDir(id string) string   { return filepath.Join(st.dir, "jobs", id) }
func (st *state) specPath(id string) string { return filepath.Join(st.jobDir(id), "spec.json") }
func (st *state) planPath(id string) string { return filepath.Join(st.jobDir(id), "plan.json") }
func (st *state) shardPath(id string, i int) string {
	return filepath.Join(st.jobDir(id), fmt.Sprintf("shard-%d.pgsr", i))
}
func (st *state) deltaPath(id string, i int) string {
	return filepath.Join(st.jobDir(id), fmt.Sprintf("shard-%d.pgsd", i))
}
func (st *state) resultPath(id string) string   { return filepath.Join(st.jobDir(id), "result.pgr") }
func (st *state) degradedPath(id string) string { return filepath.Join(st.jobDir(id), "degraded.json") }

func (st *state) saveTraces(traces map[string]TraceInfo) error {
	list := make([]TraceInfo, 0, len(traces))
	for _, t := range traces {
		list = append(list, t)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	return writeJSONAtomic(st.tracesPath(), list)
}

func (st *state) loadTraces() (map[string]TraceInfo, error) {
	out := make(map[string]TraceInfo)
	data, err := os.ReadFile(st.tracesPath())
	if os.IsNotExist(err) {
		return out, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: reading trace registry: %w", err)
	}
	var list []TraceInfo
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("serve: parsing trace registry: %w", err)
	}
	for _, t := range list {
		out[t.ID] = t
	}
	return out, nil
}

func (st *state) saveSpec(spec JobSpec) error {
	if err := os.MkdirAll(st.jobDir(spec.ID), 0o755); err != nil {
		return fmt.Errorf("serve: creating job directory: %w", err)
	}
	return writeJSONAtomic(st.specPath(spec.ID), spec)
}

func (st *state) loadSpec(id string) (JobSpec, error) {
	var spec JobSpec
	data, err := os.ReadFile(st.specPath(id))
	if err != nil {
		return spec, fmt.Errorf("serve: job %s: reading spec: %w", id, err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("serve: job %s: parsing spec: %w", id, err)
	}
	return spec, nil
}

func (st *state) savePlan(id string, p *shard.Plan) error {
	var buf bytes.Buffer
	if err := shard.WritePlan(&buf, p); err != nil {
		return fmt.Errorf("serve: job %s: encoding plan: %w", id, err)
	}
	return writeFileAtomic(st.planPath(id), buf.Bytes())
}

func (st *state) loadPlan(id string) (*shard.Plan, error) {
	return shard.LoadPlan(st.planPath(id))
}

func (st *state) saveResult(id string, res *JobResult) error {
	var buf bytes.Buffer
	buf.WriteString(resultMagic)
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return fmt.Errorf("serve: job %s: encoding result: %w", id, err)
	}
	return writeFileAtomic(st.resultPath(id), buf.Bytes())
}

func (st *state) loadResult(id string) (*JobResult, error) {
	f, err := os.Open(st.resultPath(id))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	magic := make([]byte, len(resultMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return nil, fmt.Errorf("serve: job %s: reading result magic: %w", id, err)
	}
	if string(magic) != resultMagic {
		return nil, fmt.Errorf("serve: job %s: not a job-result file (magic %q)", id, magic)
	}
	var res JobResult
	if err := gob.NewDecoder(f).Decode(&res); err != nil {
		return nil, fmt.Errorf("serve: job %s: decoding result: %w", id, err)
	}
	if res.Result == nil {
		return nil, fmt.Errorf("serve: job %s: %w", id, errNoResult)
	}
	return &res, nil
}

func (st *state) saveDegraded(id string, mark DegradedMark) error {
	return writeJSONAtomic(st.degradedPath(id), mark)
}

func (st *state) loadDegraded(id string) (*DegradedMark, bool) {
	data, err := os.ReadFile(st.degradedPath(id))
	if err != nil {
		return nil, false
	}
	var mark DegradedMark
	if err := json.Unmarshal(data, &mark); err != nil {
		return nil, false
	}
	return &mark, true
}

// listJobs returns the IDs of every job directory, sorted.
func (st *state) listJobs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("serve: listing jobs: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

// writeFileAtomic is the daemon's only way to write state: temp file, sync,
// rename. A kill at any point leaves the previous file intact.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".pgserved-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
