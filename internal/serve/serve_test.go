package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"paragraph/internal/core"
	"paragraph/internal/faultinject"
	"paragraph/internal/isa"
	"paragraph/internal/shard"
	"paragraph/internal/trace"
)

// synthTrace builds a v2 trace with many chunk boundaries so small tests
// still split into real multi-shard plans.
func synthTrace(t testing.TB, n int, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOpts(&buf, trace.WriterOptions{ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pc := uint32(0x400000)
	for i := 0; i < n; i++ {
		var e trace.Event
		switch rng.Intn(4) {
		case 0:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.ADDI, Rt: isa.T0, Rs: isa.T1, Imm: int32(rng.Intn(32))}}
		case 1:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.LW, Rt: isa.T2, Rs: isa.GP},
				MemAddr: 0x10000000 + uint32(rng.Intn(1<<10))*4, MemSize: 4, Seg: trace.SegData}
		case 2:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SW, Rt: isa.T0, Rs: isa.GP},
				MemAddr: 0x10000000 + uint32(rng.Intn(1<<10))*4, MemSize: 4, Seg: trace.SegData}
		default:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.BNE, Rs: isa.T0, Rt: isa.Zero, Imm: -8},
				Taken: rng.Intn(2) == 0}
		}
		if err := w.Event(&e); err != nil {
			t.Fatal(err)
		}
		pc += 4
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeTraceFile(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.pgt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// testServer builds a Server with fast test timings and a no-op sleep, and
// wraps its handler in an httptest server so every interaction goes
// through the real HTTP API.
func testServer(t testing.TB, stateDir string, mod func(*Options)) (*Server, string) {
	t.Helper()
	opts := Options{
		StateDir:  stateDir,
		Workers:   2,
		Seed:      42,
		RetryBase: time.Millisecond,
		Sleep:     func(time.Duration) {},
	}
	if mod != nil {
		mod(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	api := httptest.NewServer(s.Handler())
	t.Cleanup(api.Close)
	t.Cleanup(s.kill)
	return s, api.URL
}

func postJSON(t testing.TB, url string, body any, out any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("parsing %s response %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func getJSON(t testing.TB, url string, out any) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("parsing %s response %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func registerTrace(t testing.TB, api, location string) string {
	t.Helper()
	var ti TraceInfo
	code, raw := postJSON(t, api+"/v1/traces", map[string]string{"location": location}, &ti)
	if code != http.StatusCreated {
		t.Fatalf("registering trace: status %d: %s", code, raw)
	}
	return ti.ID
}

func submitJob(t testing.TB, api, traceID string, cfg core.Config, shards int) string {
	t.Helper()
	var resp map[string]string
	code, raw := postJSON(t, api+"/v1/jobs", map[string]any{
		"trace": traceID, "config": cfg, "shards": shards,
	}, &resp)
	if code != http.StatusAccepted {
		t.Fatalf("submitting job: status %d: %s", code, raw)
	}
	return resp["id"]
}

// waitJob polls the status endpoint until the job reaches a terminal
// state, returning the final view.
func waitJob(t testing.TB, api, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v JobView
		code, raw := getJSON(t, api+"/v1/jobs/"+id, &v)
		if code != http.StatusOK {
			t.Fatalf("job status: %d: %s", code, raw)
		}
		switch v.State {
		case StateDone, StateDegraded, StateFailed:
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after 60s: %+v", id, v.State, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetchGobResult retrieves and decodes the exact merged result.
func fetchGobResult(t *testing.T, api, id string) *JobResult {
	t.Helper()
	resp, err := http.Get(api + "/v1/jobs/" + id + "/result?format=gob")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("gob result: status %d: %s", resp.StatusCode, raw)
	}
	magic := make([]byte, len(resultMagic))
	if _, err := io.ReadFull(resp.Body, magic); err != nil || string(magic) != resultMagic {
		t.Fatalf("gob result: bad magic %q (err %v)", magic, err)
	}
	var res JobResult
	if err := gob.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding gob result: %v", err)
	}
	return &res
}

var testConfig = core.Config{
	RenameRegisters: true,
	Profile:         true,
	Lifetimes:       true,
	Sharing:         true,
}

func TestDaemonLocalJob(t *testing.T) {
	data := synthTrace(t, 20000, 1)
	path := writeTraceFile(t, data)
	_, api := testServer(t, t.TempDir(), nil)

	tid := registerTrace(t, api, path)
	jid := submitJob(t, api, tid, testConfig, 5)
	v := waitJob(t, api, jid)
	if v.State != StateDone {
		t.Fatalf("job finished %q, want done: %+v", v.State, v)
	}
	if v.ShardsDone != len(v.Shards) || len(v.Shards) < 2 {
		t.Fatalf("want all of >=2 shards done, got %d/%d", v.ShardsDone, len(v.Shards))
	}

	got := fetchGobResult(t, api, jid)
	wantRes, wantRS, err := shard.Analyze(context.Background(), data, testConfig, 5, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, wantRes) {
		t.Error("daemon result differs from direct sharded analysis")
	}
	if got.ReadStats != wantRS {
		t.Errorf("daemon read stats %+v, want %+v", got.ReadStats, wantRS)
	}

	var sum ResultSummary
	if code, raw := getJSON(t, api+"/v1/jobs/"+jid+"/result", &sum); code != http.StatusOK {
		t.Fatalf("result summary: %d: %s", code, raw)
	}
	if sum.Instructions != wantRes.Instructions || sum.CriticalPath != wantRes.CriticalPath {
		t.Errorf("summary %+v does not match result", sum)
	}
}

// TestDifferentialDaemonChaos is the chaos differential of the issue: a
// sharded job whose trace arrives through the fault-injecting transport
// (throttles, mid-body cuts, truncations — no permanent faults) completes
// with a result deep-equal to a clean local run, and the absorbed retries
// are visible in the job status.
func TestDifferentialDaemonChaos(t *testing.T) {
	data := synthTrace(t, 20000, 2)
	store := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "trace.pgt", time.Unix(0, 0), bytes.NewReader(data))
	}))
	defer store.Close()
	chaos := faultinject.NewChaosTransport(store.Client().Transport, faultinject.ChaosOptions{
		Seed: 17, ThrottleP: 0.2, CutP: 0.2, TruncateP: 0.15,
	})
	_, api := testServer(t, t.TempDir(), func(o *Options) {
		o.Client = &http.Client{Transport: chaos}
	})

	tid := registerTrace(t, api, store.URL)
	jid := submitJob(t, api, tid, testConfig, 4)
	v := waitJob(t, api, jid)
	if v.State != StateDone {
		t.Fatalf("job under chaos finished %q, want done: %+v", v.State, v)
	}
	if v.Retry.Retries == 0 {
		t.Errorf("job status reports no retries under a 55%% fault rate: %+v", v.Retry)
	}
	if cs := chaos.Stats(); cs.Throttled+cs.Cut+cs.Truncated == 0 {
		t.Fatalf("chaos transport injected nothing: %+v", cs)
	}

	got := fetchGobResult(t, api, jid)
	wantRes, wantRS, err := shard.Analyze(context.Background(), data, testConfig, 4, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, wantRes) {
		t.Error("chaos-fetched result differs from clean local analysis")
	}
	if got.ReadStats != wantRS {
		t.Errorf("chaos-fetched read stats %+v, want %+v", got.ReadStats, wantRS)
	}
}

// submitSpeculativeJob queues a job with the speculative engine selected.
func submitSpeculativeJob(t *testing.T, api, traceID string, cfg core.Config, shards int) string {
	t.Helper()
	var resp map[string]string
	code, raw := postJSON(t, api+"/v1/jobs", map[string]any{
		"trace": traceID, "config": cfg, "shards": shards, "speculate": true,
	}, &resp)
	if code != http.StatusAccepted {
		t.Fatalf("submitting speculative job: status %d: %s", code, raw)
	}
	return resp["id"]
}

// TestDifferentialDaemonSpeculative: a speculative job produces exactly the
// chained job's output — same merged result, same read stats — and leaves
// both the delta files (the parallel build artifacts) and the same
// shard-N.pgsr result files the chained path persists.
func TestDifferentialDaemonSpeculative(t *testing.T) {
	data := synthTrace(t, 20000, 7)
	path := writeTraceFile(t, data)
	stateDir := t.TempDir()
	_, api := testServer(t, stateDir, nil)

	tid := registerTrace(t, api, path)
	chainedID := submitJob(t, api, tid, testConfig, 5)
	specID := submitSpeculativeJob(t, api, tid, testConfig, 5)
	if v := waitJob(t, api, chainedID); v.State != StateDone {
		t.Fatalf("chained job finished %q, want done: %+v", v.State, v)
	}
	if v := waitJob(t, api, specID); v.State != StateDone {
		t.Fatalf("speculative job finished %q, want done: %+v", v.State, v)
	}

	chained := fetchGobResult(t, api, chainedID)
	spec := fetchGobResult(t, api, specID)
	if !reflect.DeepEqual(spec.Result, chained.Result) {
		t.Error("speculative job result differs from chained job result")
	}
	if spec.ReadStats != chained.ReadStats {
		t.Errorf("read stats: speculative %+v, chained %+v", spec.ReadStats, chained.ReadStats)
	}

	// Same per-shard result files, and the speculative job's deltas on top.
	for i := 0; i < 5; i++ {
		specPart, _, err := shard.LoadResult(filepath.Join(stateDir, "jobs", specID, "shard-"+strconv.Itoa(i)+".pgsr"))
		if err != nil {
			t.Fatalf("speculative job shard %d result: %v", i, err)
		}
		chainedPart, _, err := shard.LoadResult(filepath.Join(stateDir, "jobs", chainedID, "shard-"+strconv.Itoa(i)+".pgsr"))
		if err != nil {
			t.Fatalf("chained job shard %d result: %v", i, err)
		}
		if !reflect.DeepEqual(specPart, chainedPart) {
			t.Errorf("shard %d: speculative persisted result differs from chained", i)
		}
		if _, err := shard.LoadDelta(filepath.Join(stateDir, "jobs", specID, "shard-"+strconv.Itoa(i)+".pgsd")); err != nil {
			t.Errorf("speculative job shard %d delta not persisted: %v", i, err)
		}
	}
}

// TestDifferentialDaemonSpeculativeChaosResume combines the hostile paths:
// a speculative job fetching its shards through the chaos transport is
// crash-killed right after the first spliced shard persists; a fresh
// daemon resumes it (reusing the persisted deltas and the finished shard)
// and the merged result is deep-equal to a clean local run.
func TestDifferentialDaemonSpeculativeChaosResume(t *testing.T) {
	data := synthTrace(t, 20000, 8)
	store := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "trace.pgt", time.Unix(0, 0), bytes.NewReader(data))
	}))
	defer store.Close()
	newChaos := func(seed int64) *http.Client {
		return &http.Client{Transport: faultinject.NewChaosTransport(store.Client().Transport, faultinject.ChaosOptions{
			Seed: seed, ThrottleP: 0.15, CutP: 0.15, TruncateP: 0.1,
		})}
	}
	stateDir := t.TempDir()

	s1, api1 := testServer(t, stateDir, func(o *Options) { o.Client = newChaos(31) })
	crashed := make(chan struct{})
	var once sync.Once
	s1.afterShard = func(jobID string, i int) {
		if i == 0 {
			once.Do(func() {
				s1.cancel()
				close(crashed)
			})
		}
	}
	tid := registerTrace(t, api1, store.URL)
	jid := submitSpeculativeJob(t, api1, tid, testConfig, 4)
	select {
	case <-crashed:
	case <-time.After(60 * time.Second):
		t.Fatal("speculative job never spliced its first shard")
	}
	s1.kill()

	if _, err := os.Stat(filepath.Join(stateDir, "jobs", jid, "result.pgr")); err == nil {
		t.Fatal("crashed daemon left a merged result; the job had not finished")
	}
	if _, _, err := shard.LoadResult(filepath.Join(stateDir, "jobs", jid, "shard-0.pgsr")); err != nil {
		t.Fatalf("crashed daemon lost shard 0's persisted result: %v", err)
	}

	_, api2 := testServer(t, stateDir, func(o *Options) { o.Client = newChaos(32) })
	v := waitJob(t, api2, jid)
	if v.State != StateDone {
		t.Fatalf("resumed speculative job finished %q, want done: %+v", v.State, v)
	}

	got := fetchGobResult(t, api2, jid)
	wantRes, wantRS, err := shard.Analyze(context.Background(), data, testConfig, 4, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, wantRes) {
		t.Error("resumed speculative result differs from clean local analysis")
	}
	if got.ReadStats != wantRS {
		t.Errorf("resumed speculative read stats %+v, want %+v", got.ReadStats, wantRS)
	}
}

// TestDifferentialDaemonCrashResume is the crash differential: the daemon
// dies (hard cancel, nothing flushed beyond what atomic writes already
// persisted) right after the first shard lands; a fresh daemon over the
// same state directory resumes the job from disk and the merged result is
// deep-equal to an uninterrupted run.
func TestDifferentialDaemonCrashResume(t *testing.T) {
	data := synthTrace(t, 20000, 3)
	path := writeTraceFile(t, data)
	stateDir := t.TempDir()

	s1, api1 := testServer(t, stateDir, nil)
	crashed := make(chan struct{})
	var once sync.Once
	s1.afterShard = func(jobID string, i int) {
		if i == 0 {
			once.Do(func() {
				s1.cancel() // SIGKILL equivalent: no drain, no goodbye
				close(crashed)
			})
		}
	}
	tid := registerTrace(t, api1, path)
	jid := submitJob(t, api1, tid, testConfig, 5)
	select {
	case <-crashed:
	case <-time.After(60 * time.Second):
		t.Fatal("job never reached its first shard")
	}
	s1.kill()

	// The dead daemon must have left the plan and exactly the completed
	// shard results — and no merged result.
	if _, err := os.Stat(filepath.Join(stateDir, "jobs", jid, "result.pgr")); err == nil {
		t.Fatal("crashed daemon left a merged result; the job had not finished")
	}
	if _, _, err := shard.LoadResult(filepath.Join(stateDir, "jobs", jid, "shard-0.pgsr")); err != nil {
		t.Fatalf("crashed daemon lost shard 0's persisted result: %v", err)
	}

	_, api2 := testServer(t, stateDir, nil)
	v := waitJob(t, api2, jid)
	if v.State != StateDone {
		t.Fatalf("resumed job finished %q, want done: %+v", v.State, v)
	}

	got := fetchGobResult(t, api2, jid)
	wantRes, wantRS, err := shard.Analyze(context.Background(), data, testConfig, 5, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, wantRes) {
		t.Error("crash-resumed result differs from uninterrupted analysis")
	}
	if got.ReadStats != wantRS {
		t.Errorf("crash-resumed read stats %+v, want %+v", got.ReadStats, wantRS)
	}
}

// TestDaemonDegradedJob pins graceful degradation: a shard whose byte
// range the server permanently refuses breaks the checkpoint chain there;
// the job lands degraded with the completed shards' results kept, and the
// verdict survives a daemon restart.
func TestDaemonDegradedJob(t *testing.T) {
	data := synthTrace(t, 20000, 4)
	plan, err := shard.Split(data, 4, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 4 {
		t.Fatalf("want a 4-shard plan, got %d", len(plan.Shards))
	}
	deadline := plan.Shards[2].Start // shard 2's range is forbidden

	store := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rng := r.Header.Get("Range"); rng != "" {
			if start, err := strconv.ParseInt(strings.TrimPrefix(rng[:strings.Index(rng, "-")], "bytes="), 10, 64); err == nil && start >= deadline {
				http.Error(w, "forbidden range", http.StatusForbidden)
				return
			}
		}
		http.ServeContent(w, r, "trace.pgt", time.Unix(0, 0), bytes.NewReader(data))
	}))
	defer store.Close()

	stateDir := t.TempDir()
	s1, api := testServer(t, stateDir, nil)

	tid := registerTrace(t, api, store.URL)
	jid := submitJob(t, api, tid, testConfig, 4)
	v := waitJob(t, api, jid)
	if v.State != StateDegraded {
		t.Fatalf("job finished %q, want degraded: %+v", v.State, v)
	}
	if v.Degraded == nil || v.Degraded.Shard != 2 {
		t.Fatalf("degradation mark %+v, want shard 2", v.Degraded)
	}
	if v.ShardsDone != 2 {
		t.Errorf("want the 2 completed shards kept, got %d done", v.ShardsDone)
	}
	if code, raw := getJSON(t, api+"/v1/jobs/"+jid+"/result", nil); code != http.StatusConflict {
		t.Fatalf("degraded result fetch: status %d, want 409: %s", code, raw)
	}

	// Restart: the degradation marker is terminal, the job is not re-run.
	s1.kill()
	_, api2 := testServer(t, stateDir, nil)
	var v2 JobView
	if code, raw := getJSON(t, api2+"/v1/jobs/"+jid, &v2); code != http.StatusOK {
		t.Fatalf("recovered status: %d: %s", code, raw)
	}
	if v2.State != StateDegraded || v2.Degraded == nil || v2.Degraded.Shard != 2 {
		t.Fatalf("restart lost the degradation verdict: %+v", v2)
	}
}

// TestDaemonPanicContainment injects a panic into a shard attempt: it must
// count as one failed attempt, not kill the worker, and the retry must
// complete the job with a correct result.
func TestDaemonPanicContainment(t *testing.T) {
	data := synthTrace(t, 8000, 5)
	path := writeTraceFile(t, data)
	s, api := testServer(t, t.TempDir(), nil)
	var once sync.Once
	s.beforeAttempt = func(jobID string, i int) {
		if i == 1 {
			once.Do(func() { panic("injected shard fault") })
		}
	}

	tid := registerTrace(t, api, path)
	jid := submitJob(t, api, tid, testConfig, 3)
	v := waitJob(t, api, jid)
	if v.State != StateDone {
		t.Fatalf("job finished %q, want done despite the panic: %+v", v.State, v)
	}
	if len(v.Shards) < 2 || v.Shards[1].Attempts < 2 {
		t.Fatalf("panicked shard should show a retried attempt: %+v", v.Shards)
	}
	got := fetchGobResult(t, api, jid)
	wantRes, _, err := shard.Analyze(context.Background(), data, testConfig, 3, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, wantRes) {
		t.Error("result after contained panic differs from clean analysis")
	}
}

func TestDaemonReadyzDrain(t *testing.T) {
	data := synthTrace(t, 4000, 6)
	path := writeTraceFile(t, data)
	s, api := testServer(t, t.TempDir(), nil)

	if code, _ := getJSON(t, api+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d, want 200", code)
	}
	tid := registerTrace(t, api, path)
	jid := submitJob(t, api, tid, core.Config{}, 2)
	waitJob(t, api, jid)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _ := getJSON(t, api+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", code)
	}
	if code, raw := postJSON(t, api+"/v1/jobs", map[string]any{"trace": tid, "shards": 2}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503: %s", code, raw)
	}
	// The finished job's result is still served after drain.
	if code, raw := getJSON(t, api+"/v1/jobs/"+jid+"/result", nil); code != http.StatusOK {
		t.Fatalf("result after drain: %d: %s", code, raw)
	}
	if code, _ := getJSON(t, api+"/healthz", nil); code != http.StatusOK {
		t.Fatal("healthz must stay 200 while draining")
	}
}

// TestDaemonUnknownRoutes pins the small 4xx surface.
func TestDaemonUnknownRoutes(t *testing.T) {
	_, api := testServer(t, t.TempDir(), nil)
	if code, _ := getJSON(t, api+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	if code, _ := getJSON(t, api+"/v1/jobs/nope/result", nil); code != http.StatusNotFound {
		t.Errorf("unknown job result: %d, want 404", code)
	}
	if code, raw := postJSON(t, api+"/v1/jobs", map[string]any{"trace": "missing"}, nil); code != http.StatusNotFound {
		t.Errorf("job for unknown trace: %d, want 404: %s", code, raw)
	}
	if code, raw := postJSON(t, api+"/v1/traces", map[string]string{"location": "/does/not/exist"}, nil); code != http.StatusBadRequest {
		t.Errorf("register missing file: %d, want 400: %s", code, raw)
	}
	if code, _ := getJSON(t, api+"/healthz", nil); code != http.StatusOK {
		t.Error("healthz should be 200")
	}
}

// TestDaemonOversizedBodies pins the JSON body limit: a request body over
// maxJSONBody gets 413 on every JSON endpoint, and an oversized job
// submission creates no job.
func TestDaemonOversizedBodies(t *testing.T) {
	path := writeTraceFile(t, synthTrace(t, 2000, 1))
	_, api := testServer(t, t.TempDir(), nil)
	tid := registerTrace(t, api, path)
	pad := strings.Repeat("x", maxJSONBody)

	for _, tc := range []struct {
		url  string
		body any
	}{
		{api + "/v1/jobs", map[string]any{"trace": tid, "shards": 2, "padding": pad}},
		{api + "/v1/traces", map[string]string{"location": path, "padding": pad}},
		{api + "/v1/leases", map[string]string{"worker": "w1", "padding": pad}},
		{api + "/v1/leases/l1/fail", map[string]string{"reason": pad}},
	} {
		if code, raw := postJSON(t, tc.url, tc.body, nil); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413: %.200s", tc.url, len(pad), code, raw)
		}
	}
	var jobs []JobView
	if code, raw := getJSON(t, api+"/v1/jobs", &jobs); code != http.StatusOK || len(jobs) != 0 {
		t.Errorf("after oversized submit: status %d, %d jobs, want none: %s", code, len(jobs), raw)
	}
	var traces []TraceInfo
	if code, raw := getJSON(t, api+"/v1/traces", &traces); code != http.StatusOK || len(traces) != 1 {
		t.Errorf("after oversized register: status %d, %d traces, want 1: %s", code, len(traces), raw)
	}
	// A body under the limit still works.
	submitJob(t, api, tid, testConfig, 2)
}

// TestShardAttemptMemoryFlat: a chained attempt streams its shard's bytes
// into the analyzer as they decode, so what it allocates does not grow
// with the shard. Recording the shard first would cost 28 bytes per event,
// megabytes more for the longer shard; the bound is one batch of recorded
// events. Each size keeps its least-allocating attempt, so a stray
// allocation elsewhere in the test binary cannot fail the test.
func TestShardAttemptMemoryFlat(t *testing.T) {
	s, err := New(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.kill()
	cfg := core.Dataflow(core.SyscallConservative)
	cfg.ProfileBuckets = 64 // both shard sizes fill every profile bucket
	j := &job{spec: JobSpec{ID: "mem", Config: cfg}}
	var alloc [2]uint64
	sizes := []int{20_000, 200_000}
	for k, n := range sizes {
		data := synthTrace(t, n, 3)
		plan, err := shard.Split(data, 1, shard.Options{})
		if err != nil {
			t.Fatal(err)
		}
		alloc[k] = math.MaxUint64
		for try := 0; try < 3; try++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			out := s.runAttempt(&attemptOffer{j: j, plan: plan, kind: kindChain, data: data})
			runtime.ReadMemStats(&m1)
			if out.err != nil {
				t.Fatal(out.err)
			}
			if out.part.Events != uint64(n) {
				t.Fatalf("attempt analyzed %d events, want %d", out.part.Events, n)
			}
			alloc[k] = min(alloc[k], m1.TotalAlloc-m0.TotalAlloc)
		}
	}
	batch := uint64(trace.DefaultBatchEvents) * uint64(unsafe.Sizeof(trace.Event{}))
	if alloc[1] > alloc[0]+batch {
		t.Errorf("attempt allocated %d bytes at %d events and %d at %d; want them within one batch (%d bytes)",
			alloc[0], sizes[0], alloc[1], sizes[1], batch)
	}
	t.Logf("attempt allocated %d bytes at %d events, %d at %d", alloc[0], sizes[0], alloc[1], sizes[1])
}
