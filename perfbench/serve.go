package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"paragraph"
	"paragraph/internal/core"
	"paragraph/internal/serve"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// jobShards is the shard count of every submitted job.
const jobShards = 4

// resultMagic prefixes a job's gob result (the daemon's result format v1).
const resultMagic = "pgserved-result-v1\n"

// jobConfig is the analysis every job asks for: the paper's dataflow limit
// with conservative system calls and the parallelism profile.
func jobConfig() core.Config { return core.Dataflow(core.SyscallConservative) }

// serveEnv is an in-process pgserved: a serve.Server with local executors
// behind a loopback HTTP server, its state in a directory of its own.
type serveEnv struct {
	dir    string
	srv    *serve.Server
	api    *httptest.Server
	client *http.Client

	jobs      atomic.Int64
	attempts  atomic.Int64
	successes atomic.Int64
}

func startServe(seed int64, workers int) (*serveEnv, error) {
	base := filepath.Join(benchOut(), "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{StateDir: filepath.Join(dir, "state"), Workers: workers, Seed: seed})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	api := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxIdleConnsPerHost: 4 * workers}
	return &serveEnv{dir: dir, srv: srv, api: api, client: &http.Client{Transport: tr}}, nil
}

func (e *serveEnv) close() {
	e.api.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	e.client.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// register writes data to a trace file in the environment's directory and
// registers it with the daemon.
func (e *serveEnv) register(name string, data []byte) (string, error) {
	path := filepath.Join(e.dir, name+".pgtrace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return "", err
	}
	var ti serve.TraceInfo
	if err := e.postJSON("/v1/traces", map[string]string{"location": abs}, http.StatusCreated, &ti); err != nil {
		return "", fmt.Errorf("registering %s: %w", name, err)
	}
	return ti.ID, nil
}

func (e *serveEnv) postJSON(path string, body any, want int, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := e.client.Post(e.api.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

// expected is the result a job over one registered trace must return.
type expected struct {
	traceID string
	events  int64
	result  *core.Result
	stats   trace.ReadStats
}

// runJob submits one job, follows its event stream to a terminal state,
// fetches the exact result and checks it against want. It returns the
// submit-to-terminal latency the client saw.
func (e *serveEnv) runJob(rec *Recorder, want *expected, speculate bool) (time.Duration, error) {
	kind := "chained"
	if speculate {
		kind = "speculative"
	}
	root := rec.Begin("serve.job", 0)
	defer rec.End(root, "", want.events, 0)
	t0 := time.Now()

	id := rec.Begin("serve.submit", root)
	var sub struct {
		ID string `json:"id"`
	}
	err := e.postJSON("/v1/jobs", map[string]any{
		"trace": want.traceID, "config": jobConfig(), "shards": jobShards, "speculate": speculate,
	}, http.StatusAccepted, &sub)
	rec.End(id, "", 0, 0)
	if err != nil {
		return 0, err
	}
	tSubmitted := time.Now()

	tRunning, tEnd, final, err := e.follow(sub.ID)
	if err != nil {
		return 0, err
	}
	rec.Add("serve.queue_wait", root, tSubmitted, tRunning)
	rec.Add("serve.run", root, tRunning, tEnd)
	e.jobs.Add(1)
	if final != serve.StateDone {
		return 0, fmt.Errorf("serve-jobs: job %s ended %q", sub.ID, final)
	}
	rec.Add("serve.latency."+kind, root, t0, tEnd)
	latency := tEnd.Sub(t0)

	id = rec.Begin("serve.result_fetch", root)
	raw, err := e.get("/v1/jobs/" + sub.ID + "/result?format=gob")
	rec.End(id, "", 0, int64(len(raw)))
	if err != nil {
		return 0, err
	}
	id = rec.Begin("serve.result_check", root)
	defer rec.End(id, "", 0, 0)
	if !bytes.HasPrefix(raw, []byte(resultMagic)) {
		return 0, fmt.Errorf("serve-jobs: job %s: result lacks magic %q", sub.ID, resultMagic)
	}
	var got serve.JobResult
	if err := gob.NewDecoder(bytes.NewReader(raw[len(resultMagic):])).Decode(&got); err != nil {
		return 0, fmt.Errorf("serve-jobs: job %s: decoding result: %w", sub.ID, err)
	}
	if !reflect.DeepEqual(got.Result, want.result) || got.ReadStats != want.stats {
		return 0, fmt.Errorf("serve-jobs: %s job %s: result differs from the monolithic analysis:\n  got  ops %d critical path %d stats %+v\n  want ops %d critical path %d stats %+v",
			kind, sub.ID, got.Result.Operations, got.Result.CriticalPath, got.ReadStats,
			want.result.Operations, want.result.CriticalPath, want.stats)
	}
	return latency, nil
}

func (e *serveEnv) get(path string) ([]byte, error) {
	resp, err := e.client.Get(e.api.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

// follow reads a job's server-sent events until the terminal one. It
// returns when the job was first seen running, when it ended, and its final
// state, and counts shard attempts and successes.
func (e *serveEnv) follow(jobID string) (running, end time.Time, final string, err error) {
	resp, err := e.client.Get(e.api.URL + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET events of %s: status %d", jobID, resp.StatusCode)
		return
	}
	attempts := make(map[int]int)
	done := make(map[int]bool)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			State      string `json:"state"`
			Shard      *int   `json:"shard"`
			ShardState string `json:"shard_state"`
			Attempts   int    `json:"attempts"`
			Terminal   bool   `json:"terminal"`
		}
		if err = json.Unmarshal([]byte(data), &ev); err != nil {
			return
		}
		now := time.Now()
		if running.IsZero() && (ev.State == serve.StateRunning || ev.Terminal || isTerminal(ev.State)) {
			running = now
		}
		if ev.Shard != nil && *ev.Shard >= 0 {
			attempts[*ev.Shard] = max(attempts[*ev.Shard], ev.Attempts)
			if ev.ShardState == "done" {
				// Not every path reports its attempt number; a done
				// shard took at least one.
				done[*ev.Shard] = true
				attempts[*ev.Shard] = max(attempts[*ev.Shard], 1)
			}
		}
		if ev.Terminal || isTerminal(ev.State) {
			end, final = now, ev.State
			break
		}
	}
	if final == "" {
		if err = sc.Err(); err == nil {
			err = fmt.Errorf("event stream of %s ended before a terminal state", jobID)
		}
		return
	}
	n := 0
	for _, a := range attempts {
		n += a
	}
	e.attempts.Add(int64(n))
	e.successes.Add(int64(len(done)))
	return
}

func isTerminal(st string) bool {
	return st == serve.StateDone || st == serve.StateDegraded || st == serve.StateFailed
}

// stateBytes is the size of the daemon's state directory.
func (e *serveEnv) stateBytes() int64 {
	var n int64
	_ = filepath.WalkDir(filepath.Join(e.dir, "state"), func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// serveMetrics adds the daemon's own per-layer counts.
func (e *serveEnv) serveMetrics(m map[string]float64) {
	if a := e.attempts.Load(); a > 0 {
		m["serve.attempt_success_ratio"] = float64(e.successes.Load()) / float64(a)
	}
	if j := e.jobs.Load(); j > 0 {
		m["serve.state_bytes_per_job"] = float64(e.stateBytes()) / float64(j)
	}
}

// setupServeJobs starts an in-process daemon with the naskerx trace
// registered and computes the monolithic result every job must match. Each
// client submits 4-shard jobs, chained or speculative by a seeded draw.
func setupServeJobs(ctx context.Context, seed int64, clients int) (*instance, error) {
	w, ok := workloads.ByName("naskerx")
	if !ok {
		return nil, fmt.Errorf("no naskerx workload")
	}
	data, err := encodeWorkload(w)
	if err != nil {
		return nil, err
	}
	var rs paragraph.TraceReadStats
	ref, err := paragraph.AnalyzeTraceFileOpts(bytes.NewReader(data), jobConfig(), paragraph.AnalyzeOptions{Stats: &rs})
	if err != nil {
		return nil, err
	}
	env, err := startServe(seed, clients)
	if err != nil {
		return nil, err
	}
	tid, err := env.register(w.Name, data)
	if err != nil {
		env.close()
		return nil, err
	}
	want := &expected{traceID: tid, events: int64(ref.Instructions), result: ref, stats: rs}
	// Each client draws from its own generator, on its own goroutine.
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	}
	op := func(ctx context.Context, client int, rec *Recorder) (opStat, error) {
		speculate := rngs[client].Intn(2) == 1
		lat, err := env.runJob(rec, want, speculate)
		return opStat{events: float64(want.events), latency: lat.Seconds()}, err
	}
	return &instance{
		op:     op,
		warmup: 2,
		ladder: ladderInput{
			programs:   []*workloads.Workload{w},
			fullEvents: map[string]float64{w.Name: float64(want.events)},
			skipServe:  true, // the traced jobs already time the daemon
		},
		layerExtras: env.serveMetrics,
		close:       env.close,
	}, nil
}
