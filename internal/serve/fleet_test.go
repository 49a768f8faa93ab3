package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"paragraph/internal/core"
	"paragraph/internal/faultinject"
	"paragraph/internal/shard"
)

// startWorker runs a fleet worker loop against the coordinator API until
// the returned cancel fires (also called at cleanup). setup runs before
// the loop starts, so test hooks cannot race the first lease.
func startWorker(t *testing.T, api, name string, mod func(*WorkerOptions), setup func(*Worker)) (*Worker, context.CancelFunc) {
	t.Helper()
	opts := WorkerOptions{
		Coordinator: api,
		Name:        name,
		Poll:        5 * time.Millisecond,
		Seed:        7,
	}
	if mod != nil {
		mod(&opts)
	}
	w, err := NewWorker(opts)
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	if setup != nil {
		setup(w)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return w, cancel
}

// jobFiles reads a job's persisted analysis artifacts — every
// shard-N.pgsr and the merged result.pgr — keyed by file name.
func jobFiles(t *testing.T, s *Server, id string) map[string][]byte {
	t.Helper()
	dir := s.st.jobDir(id)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading job dir: %v", err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".pgsr") && name != "result.pgr" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = b
	}
	return files
}

// assertJobBytesEqual proves two jobs persisted byte-identical artifacts:
// the same shard result files and the same merged result. This is the
// fleet acceptance bar — a shard run on a leased worker must leave bytes
// indistinguishable from one run in-process.
func assertJobBytesEqual(t *testing.T, sa *Server, ida string, sb *Server, idb string) {
	t.Helper()
	a, b := jobFiles(t, sa, ida), jobFiles(t, sb, idb)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("artifact sets differ: %d vs %d files", len(a), len(b))
	}
	for name, ab := range a {
		bb, ok := b[name]
		if !ok {
			t.Fatalf("artifact %s missing from second job", name)
		}
		if !bytes.Equal(ab, bb) {
			t.Errorf("artifact %s differs: %d vs %d bytes", name, len(ab), len(bb))
		}
	}
}

// runSingleBox runs the same job on a plain local daemon and returns the
// server and job ID, as the byte-equality reference.
func runSingleBox(t *testing.T, tracePath string, shards int, speculate bool) (*Server, string) {
	t.Helper()
	s, api := testServer(t, t.TempDir(), nil)
	tid := registerTrace(t, api, tracePath)
	var jid string
	if speculate {
		jid = submitSpeculativeJob(t, api, tid, testConfig, shards)
	} else {
		jid = submitJob(t, api, tid, testConfig, shards)
	}
	if v := waitJob(t, api, jid); v.State != StateDone {
		t.Fatalf("reference job finished %q, want done: %+v", v.State, v)
	}
	return s, jid
}

// TestFleetLeaseLifecycle: a fleet-only coordinator (no local executors)
// drives a chained job entirely through one leased worker, and the
// persisted artifacts are byte-equal to a single-box run.
func TestFleetLeaseLifecycle(t *testing.T) {
	data := synthTrace(t, 20000, 21)
	path := writeTraceFile(t, data)

	s, api := testServer(t, t.TempDir(), func(o *Options) {
		o.LocalExecutors = -1
		o.LeaseTTL = 2 * time.Second
	})
	w, _ := startWorker(t, api, "w1", nil, nil)

	tid := registerTrace(t, api, path)
	jid := submitJob(t, api, tid, testConfig, 5)
	v := waitJob(t, api, jid)
	if v.State != StateDone {
		t.Fatalf("job finished %q, want done: %+v", v.State, v)
	}
	if v.LeaseExpiries != 0 {
		t.Fatalf("clean run recorded %d lease expiries", v.LeaseExpiries)
	}
	for i, sp := range v.Shards {
		if sp.Worker != "w1" {
			t.Errorf("shard %d ran on %q, want leased worker w1", i, sp.Worker)
		}
	}
	// The worker counts a completion when the coordinator's answer reaches
	// it, which can be after the job is done: wait for the count.
	for deadline := time.Now().Add(10 * time.Second); w.Stats().Completed < len(v.Shards) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if st := w.Stats(); st.Completed != len(v.Shards) {
		t.Errorf("worker completed %d leases, want %d", st.Completed, len(v.Shards))
	}

	ref, refJob := runSingleBox(t, path, 5, false)
	assertJobBytesEqual(t, s, jid, ref, refJob)
}

// TestDifferentialFleetChaos is the fleet proof battery: a coordinator
// with no local executors, three leased workers behind a fault-injecting
// control plane, one worker killed mid-lease (vanishes without a word —
// pure expiry) and one stalling its heartbeats past the TTL. The job must
// still finish, the expiries must be visible in its stats, and every
// persisted byte must match a single-box run.
func TestDifferentialFleetChaos(t *testing.T) {
	data := synthTrace(t, 20000, 22)
	path := writeTraceFile(t, data)
	ttl := 300 * time.Millisecond

	s, api := testServer(t, t.TempDir(), func(o *Options) {
		o.LocalExecutors = -1
		o.LeaseTTL = ttl
		o.ShardAttempts = 10
	})

	chaosClient := func(seed int64) *http.Client {
		return &http.Client{Transport: faultinject.NewChaosTransport(nil, faultinject.ChaosOptions{
			Seed:      seed,
			ThrottleP: 0.15,
			CutP:      0.10,
			MaxFaults: 20,
		})}
	}

	// Worker A is killed inside its first completion window: no fail
	// report, no further heartbeats — the lease can only die by expiry.
	var wa *Worker
	var cancelA context.CancelFunc
	var killOnce sync.Once
	wa, cancelA = startWorker(t, api, "wa",
		func(o *WorkerOptions) { o.Client = chaosClient(1) },
		func(w *Worker) {
			w.beforeComplete = func(*LeaseMsg) {
				killOnce.Do(func() { cancelA() })
			}
		})
	_ = wa

	// Worker B stalls its heartbeats across several TTLs once, mid-lease:
	// the coordinator expires the lease and B's late upload bounces.
	var wb *Worker
	var stallOnce sync.Once
	wb, _ = startWorker(t, api, "wb",
		func(o *WorkerOptions) { o.Client = chaosClient(2) },
		func(w *Worker) {
			w.beforeComplete = func(*LeaseMsg) {
				stallOnce.Do(func() {
					w.stallHeartbeats.Store(true)
					time.Sleep(3 * ttl)
					w.stallHeartbeats.Store(false)
				})
			}
		})

	// Worker C is healthy and guarantees the fleet can finish the job.
	startWorker(t, api, "wc", func(o *WorkerOptions) { o.Client = chaosClient(3) }, nil)

	tid := registerTrace(t, api, path)
	jid := submitJob(t, api, tid, testConfig, 6)
	v := waitJob(t, api, jid)
	if v.State != StateDone {
		t.Fatalf("job finished %q, want done: %+v", v.State, v)
	}
	if v.LeaseExpiries < 1 {
		t.Fatalf("want at least one lease expiry in job stats, got %+v", v)
	}
	// The job can finish on the healthy workers while the stalled worker is
	// still asleep in its kill window; give it time to notice the 410.
	deadline := time.Now().Add(15 * time.Second)
	for wb.Stats().Lost < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled worker never observed its lost lease: %+v", wb.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	ref, refJob := runSingleBox(t, path, 6, false)
	assertJobBytesEqual(t, s, jid, ref, refJob)
}

// TestDifferentialFleetSpeculative: speculative delta builds lease out to
// fleet workers too, and the spliced artifacts are byte-equal to a plain
// chained single-box run.
func TestDifferentialFleetSpeculative(t *testing.T) {
	data := synthTrace(t, 20000, 23)
	path := writeTraceFile(t, data)

	s, api := testServer(t, t.TempDir(), func(o *Options) {
		o.LocalExecutors = -1
		o.LeaseTTL = 2 * time.Second
	})
	startWorker(t, api, "w1", nil, nil)
	startWorker(t, api, "w2", nil, nil)

	tid := registerTrace(t, api, path)
	jid := submitSpeculativeJob(t, api, tid, testConfig, 5)
	v := waitJob(t, api, jid)
	if v.State != StateDone {
		t.Fatalf("speculative fleet job finished %q, want done: %+v", v.State, v)
	}
	workers := map[string]bool{}
	for _, sp := range v.Shards {
		workers[sp.Worker] = true
	}
	if !workers["w1"] || !workers["w2"] {
		t.Logf("note: shard spread %v (both workers racing one queue; spread is best-effort)", workers)
	}

	ref, refJob := runSingleBox(t, path, 5, false)
	assertJobBytesEqual(t, s, jid, ref, refJob)
}

// TestFleetCoordinatorCrashRestart: SIGKILL the coordinator after the
// first fleet-run shard persists, restart over the same state directory
// with a fresh worker, and the job must resume from the persisted shard
// and finish byte-equal to a single-box run.
func TestFleetCoordinatorCrashRestart(t *testing.T) {
	data := synthTrace(t, 20000, 24)
	path := writeTraceFile(t, data)
	stateDir := t.TempDir()

	fleetOpts := func(o *Options) {
		o.LocalExecutors = -1
		o.LeaseTTL = time.Second
		o.ShardAttempts = 6
	}
	s1, api1 := testServer(t, stateDir, fleetOpts)
	killed := make(chan struct{})
	var once sync.Once
	s1.afterShard = func(jobID string, shard int) {
		once.Do(func() {
			s1.cancel() // in-process SIGKILL: nothing past persisted state survives
			close(killed)
		})
	}
	_, cancelW1 := startWorker(t, api1, "w1", nil, nil)

	tid := registerTrace(t, api1, path)
	jid := submitJob(t, api1, tid, testConfig, 5)
	select {
	case <-killed:
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator never persisted a first shard")
	}
	cancelW1()

	s2, api2 := testServer(t, stateDir, fleetOpts)
	startWorker(t, api2, "w2", nil, nil)
	v := waitJob(t, api2, jid)
	if v.State != StateDone {
		t.Fatalf("resumed job finished %q, want done: %+v", v.State, v)
	}
	if v.ShardsDone != 5 {
		t.Fatalf("resumed job done %d/5 shards", v.ShardsDone)
	}

	ref, refJob := runSingleBox(t, path, 5, false)
	assertJobBytesEqual(t, s2, jid, ref, refJob)
}

// TestFleetDrainRequeue: draining a coordinator with an outstanding lease
// re-queues the leased shard (the job stays resumable), readiness goes
// false, the lease dies (renew answers Gone), and new leases are refused.
// A restart over the same state completes the job.
func TestFleetDrainRequeue(t *testing.T) {
	data := synthTrace(t, 20000, 25)
	path := writeTraceFile(t, data)
	stateDir := t.TempDir()

	s, api := testServer(t, stateDir, func(o *Options) {
		o.LocalExecutors = -1
		o.ShardAttempts = 8
	})
	tid := registerTrace(t, api, path)
	jid := submitJob(t, api, tid, testConfig, 4)

	var lm LeaseMsg
	code, raw := postJSON(t, api+"/v1/leases", map[string]any{"worker": "manual", "wait_ms": 30000}, &lm)
	if code != http.StatusOK {
		t.Fatalf("acquiring lease: %d: %s", code, raw)
	}
	if lm.Job != jid || lm.Shard.Index != 0 {
		t.Fatalf("leased %s shard %d, want job %s shard 0", lm.Job, lm.Shard.Index, jid)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain with outstanding lease: %v", err)
	}

	if code, _ := getJSON(t, api+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: %d, want 503", code)
	}
	if code, _ := postJSON(t, api+"/v1/leases/"+lm.ID+"/renew", nil, nil); code != http.StatusGone {
		t.Errorf("renewing drained lease: %d, want 410", code)
	}
	if code, _ := postJSON(t, api+"/v1/leases", map[string]any{"worker": "manual", "wait_ms": 0}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("acquire while draining: %d, want 503", code)
	}
	var v JobView
	getJSON(t, api+"/v1/jobs/"+jid, &v)
	if v.State != StateQueued {
		t.Fatalf("job after drain is %q, want queued (resumable)", v.State)
	}

	_, api2 := testServer(t, stateDir, nil) // local executors finish it
	if v := waitJob(t, api2, jid); v.State != StateDone {
		t.Fatalf("restarted job finished %q, want done: %+v", v.State, v)
	}
}

// TestFleetWorkerSigtermDepart: a worker canceled mid-attempt (SIGTERM)
// fails its lease fast — "worker departing", no expiry wait — and the
// coordinator retries the shard elsewhere.
func TestFleetWorkerSigtermDepart(t *testing.T) {
	data := synthTrace(t, 20000, 26)

	// The trace lives on its own HTTP server so the worker's fetch can be
	// blocked without touching the coordinator's control plane.
	var blocking bool
	var mu sync.Mutex
	inFetch := make(chan struct{}, 16)
	traceSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hold := blocking && r.Method == http.MethodGet && r.Header.Get("Range") != ""
		mu.Unlock()
		if hold {
			select {
			case inFetch <- struct{}{}:
			default:
			}
			<-r.Context().Done() // hold until the worker gives up
			return
		}
		http.ServeContent(w, r, "trace.pgt", time.Time{}, bytes.NewReader(data))
	}))
	defer traceSrv.Close()

	_, api := testServer(t, t.TempDir(), func(o *Options) {
		o.LocalExecutors = -1
		o.LeaseTTL = 30 * time.Second // expiry may NOT be what rescues the shard
		o.ShardAttempts = 6
	})
	tid := registerTrace(t, api, traceSrv.URL)
	jid := submitJob(t, api, tid, testConfig, 4)

	// Let the coordinator plan (it fetches the whole trace), then block
	// ranged fetches before the departing worker starts.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v JobView
		getJSON(t, api+"/v1/jobs/"+jid, &v)
		if len(v.Shards) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never planned")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	blocking = true
	mu.Unlock()

	w, cancelW := startWorker(t, api, "w-depart", nil, nil)
	select {
	case <-inFetch:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never started fetching its shard")
	}
	cancelW() // SIGTERM: the worker must fail its lease fast and exit

	// The departing worker reported the failure itself (no expiry).
	deadline = time.Now().Add(10 * time.Second)
	for w.Stats().Failed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("departing worker never failed its lease: %+v", w.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	mu.Lock()
	blocking = false
	mu.Unlock()
	startWorker(t, api, "w-finisher", nil, nil)
	v := waitJob(t, api, jid)
	if v.State != StateDone {
		t.Fatalf("job finished %q, want done: %+v", v.State, v)
	}
	if v.LeaseExpiries != 0 {
		t.Errorf("departing worker should fail fast, not expire: %d expiries", v.LeaseExpiries)
	}
}

// acquireLease takes the next lease as the manual worker "manual",
// waiting up to 30 s for one.
func acquireLease(t *testing.T, api string) LeaseMsg {
	t.Helper()
	var lm LeaseMsg
	code, raw := postJSON(t, api+"/v1/leases", map[string]any{"worker": "manual", "wait_ms": 30000}, &lm)
	if code != http.StatusOK {
		t.Fatalf("acquiring lease: %d: %s", code, raw)
	}
	return lm
}

// TestFleetWorkerFailureClassification: worker-reported failures classify
// exactly like local ones — permanent degrades the job without retries,
// panics consume attempts until the budget runs out.
func TestFleetWorkerFailureClassification(t *testing.T) {
	s, api := testServer(t, t.TempDir(), func(o *Options) {
		o.LocalExecutors = -1
		o.ShardAttempts = 2
	})
	_ = s

	failLease := func(id string, body leaseFail) {
		if code, raw := postJSON(t, api+"/v1/leases/"+id+"/fail", body, nil); code != http.StatusOK {
			t.Fatalf("failing lease: %d: %s", code, raw)
		}
	}

	// Permanent: one attempt, then degraded.
	path := writeTraceFile(t, synthTrace(t, 8000, 27))
	tid := registerTrace(t, api, path)
	jid := submitJob(t, api, tid, testConfig, 3)
	lm := acquireLease(t, api)
	if lm.Job != jid {
		t.Fatalf("leased job %s, want %s", lm.Job, jid)
	}
	failLease(lm.ID, leaseFail{Reason: "trace store on fire", Permanent: true})
	v := waitJob(t, api, jid)
	if v.State != StateDegraded || v.Degraded == nil {
		t.Fatalf("permanent failure left job %q, want degraded: %+v", v.State, v)
	}
	if !strings.Contains(v.Degraded.Reason, "trace store on fire") || v.Degraded.Attempts != 1 {
		t.Fatalf("degradation mark %+v, want reason preserved after exactly 1 attempt", v.Degraded)
	}

	// Panic: retried like a local contained panic, budget still applies.
	path2 := writeTraceFile(t, synthTrace(t, 8000, 28))
	tid2 := registerTrace(t, api, path2)
	jid2 := submitJob(t, api, tid2, testConfig, 3)
	lm1 := acquireLease(t, api)
	if lm1.Job != jid2 || lm1.Attempt != 1 {
		t.Fatalf("lease %+v, want job %s attempt 1", lm1, jid2)
	}
	failLease(lm1.ID, leaseFail{Reason: "index out of range", Panicked: true})
	lm2 := acquireLease(t, api)
	if lm2.Job != jid2 || lm2.Attempt != 2 {
		t.Fatalf("after panic, lease %+v, want the SAME shard back at attempt 2", lm2)
	}
	failLease(lm2.ID, leaseFail{Reason: "index out of range", Panicked: true})
	v2 := waitJob(t, api, jid2)
	if v2.State != StateDegraded || v2.Degraded == nil {
		t.Fatalf("exhausted panics left job %q, want degraded: %+v", v2.State, v2)
	}
	if !strings.Contains(v2.Degraded.Reason, "panic contained on worker") {
		t.Fatalf("degradation reason %q does not classify the panic", v2.Degraded.Reason)
	}
}

// TestFleetRejectsMiscountedUpload: an uploaded shard result whose event
// count, or whose checkpoint's event offset, disagrees with the leased
// shard is refused with a 400 and charged as one failed attempt, so the
// shard is offered again instead of failing at merge or ending the job
// with the wrong count.
func TestFleetRejectsMiscountedUpload(t *testing.T) {
	_, api := testServer(t, t.TempDir(), func(o *Options) {
		o.LocalExecutors = -1
		o.ShardAttempts = 3
	})
	data := synthTrace(t, 8000, 29)
	jid := submitJob(t, api, registerTrace(t, api, writeTraceFile(t, data)), testConfig, 3)

	acquire := func(attempt int) LeaseMsg {
		t.Helper()
		lm := acquireLease(t, api)
		if lm.Job != jid || lm.Shard.Index != 0 || lm.Attempt != attempt {
			t.Fatalf("lease is job %s shard %d attempt %d, want job %s shard 0 attempt %d",
				lm.Job, lm.Shard.Index, lm.Attempt, jid, attempt)
		}
		return lm
	}
	// upload runs the leased shard for real, lets edit skew the result,
	// and uploads it, returning the status code.
	upload := func(lm LeaseMsg, edit func(*shard.Result, *core.Checkpoint)) (int, string) {
		t.Helper()
		part, cp, err := shard.RunShardBytes(context.Background(), core.NewAnalyzer(lm.Config), data,
			lm.Config, lm.Shard, lm.Degraded, lm.Shards, lm.WantCheckpoint)
		if err != nil {
			t.Fatal(err)
		}
		edit(part, cp)
		var buf bytes.Buffer
		if err := shard.WriteResult(&buf, part, cp); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(api+"/v1/leases/"+lm.ID+"/complete", "application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	lm := acquire(1)
	if code, raw := upload(lm, func(p *shard.Result, _ *core.Checkpoint) { p.Events-- }); code != http.StatusBadRequest ||
		!strings.Contains(raw, "events, shard has") {
		t.Fatalf("upload with Events-1: %d %s, want 400 naming the count", code, raw)
	}
	lm = acquire(2)
	if code, raw := upload(lm, func(_ *shard.Result, cp *core.Checkpoint) { cp.EventOffset-- }); code != http.StatusBadRequest ||
		!strings.Contains(raw, "checkpoint is at event") {
		t.Fatalf("upload with a checkpoint one event short: %d %s, want 400 naming the offset", code, raw)
	}
	lm = acquire(3)
	if code, raw := upload(lm, func(*shard.Result, *core.Checkpoint) {}); code != http.StatusOK {
		t.Fatalf("true upload: %d %s, want 200", code, raw)
	}
}

// TestJobQueueBackpressure: past -max-queued the daemon answers 429 with
// a Retry-After derived from the backlog instead of silently queueing.
func TestJobQueueBackpressure(t *testing.T) {
	s, err := New(Options{
		StateDir:  t.TempDir(),
		Workers:   1,
		MaxQueued: 2,
		RetryBase: time.Millisecond,
		Sleep:     func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: nothing drains the queue, so depth is deterministic.
	t.Cleanup(s.kill)
	api := httptest.NewServer(s.Handler())
	t.Cleanup(api.Close)

	path := writeTraceFile(t, synthTrace(t, 2000, 31))
	tid := registerTrace(t, api.URL, path)
	submitJob(t, api.URL, tid, testConfig, 2)
	submitJob(t, api.URL, tid, testConfig, 2)

	body, _ := json.Marshal(map[string]any{"trace": tid, "config": testConfig, "shards": 2})
	resp, err := http.Post(api.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d (%s), want 429", resp.StatusCode, raw)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if ra != 2 { // depth 2 / 1 worker
		t.Errorf("Retry-After %d, want 2 (backlog per worker)", ra)
	}
	if !strings.Contains(string(raw), "queue full") {
		t.Errorf("overflow body %q does not explain itself", raw)
	}
}

// TestJobQueuePriority: a higher-priority job submitted later runs first.
func TestJobQueuePriority(t *testing.T) {
	s, err := New(Options{
		StateDir:  t.TempDir(),
		Workers:   1,
		RetryBase: time.Millisecond,
		Sleep:     func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.kill)
	api := httptest.NewServer(s.Handler())
	t.Cleanup(api.Close)

	var mu sync.Mutex
	var order []string
	s.afterShard = func(jobID string, _ int) {
		mu.Lock()
		if len(order) == 0 || order[len(order)-1] != jobID {
			order = append(order, jobID)
		}
		mu.Unlock()
	}

	path := writeTraceFile(t, synthTrace(t, 8000, 32))
	tid := registerTrace(t, api.URL, path)
	submitPri := func(priority int) string {
		var resp map[string]string
		code, raw := postJSON(t, api.URL+"/v1/jobs", map[string]any{
			"trace": tid, "config": testConfig, "shards": 2, "priority": priority,
		}, &resp)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d: %s", code, raw)
		}
		return resp["id"]
	}
	low := submitPri(0)
	high := submitPri(5)

	s.Start() // both already queued: the single worker must pick high first
	if v := waitJob(t, api.URL, low); v.State != StateDone {
		t.Fatalf("low-priority job: %q", v.State)
	}
	if v := waitJob(t, api.URL, high); v.State != StateDone {
		t.Fatalf("high-priority job: %q", v.State)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != high || order[1] != low {
		t.Fatalf("run order %v, want [%s %s] (priority first)", order, high, low)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

func readSSE(t *testing.T, r *bufio.Reader) (sseEvent, bool) {
	t.Helper()
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return ev, false
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		case line == "" && ev.name != "":
			return ev, true
		}
	}
}

// TestJobEventsSSE: the event stream opens with a consistent snapshot,
// then pushes per-shard transitions, and ends at the terminal state.
// Plain status polling keeps working alongside it.
func TestJobEventsSSE(t *testing.T) {
	data := synthTrace(t, 20000, 33)
	path := writeTraceFile(t, data)
	s, api := testServer(t, t.TempDir(), nil)

	// Hold the first attempt until the stream is attached, so the
	// transitions land as updates, not only in the snapshot.
	release := make(chan struct{})
	s.beforeAttempt = func(string, int) { <-release }

	tid := registerTrace(t, api, path)
	jid := submitJob(t, api, tid, testConfig, 4)

	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Get(api + "/v1/jobs/" + jid + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("events endpoint: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	br := bufio.NewReader(resp.Body)
	first, ok := readSSE(t, br)
	if !ok || first.name != "status" {
		t.Fatalf("first event %+v, want a status snapshot", first)
	}
	var snapshot JobView
	if err := json.Unmarshal([]byte(first.data), &snapshot); err != nil {
		t.Fatalf("snapshot does not parse as JobView: %v", err)
	}
	close(release)

	var sawShardDone, sawTerminal bool
	for {
		ev, ok := readSSE(t, br)
		if !ok {
			break
		}
		if ev.name != "update" {
			t.Fatalf("unexpected event %+v", ev)
		}
		var u JobEvent
		if err := json.Unmarshal([]byte(ev.data), &u); err != nil {
			t.Fatalf("update does not parse: %v (%s)", err, ev.data)
		}
		if u.ShardState == "done" {
			sawShardDone = true
		}
		if u.Terminal {
			sawTerminal = true
			if u.State != StateDone {
				t.Fatalf("terminal update state %q, want done", u.State)
			}
			break
		}
	}
	if !sawShardDone || !sawTerminal {
		t.Fatalf("stream missed transitions: shardDone=%v terminal=%v", sawShardDone, sawTerminal)
	}
	// Polling still works alongside the stream.
	if v := waitJob(t, api, jid); v.State != StateDone {
		t.Fatalf("polled state %q, want done", v.State)
	}
}

// TestJobQueueOrdering covers the queue data structure directly: priority
// order, FIFO within a priority, and the re-signal that keeps a single
// notify token from stranding queued work.
func TestJobQueueOrdering(t *testing.T) {
	q := newJobQueue()
	q.push("a", 0)
	q.push("b", 5)
	q.push("c", 5)
	q.push("d", 1)
	if d := q.depth(); d != 4 {
		t.Fatalf("depth %d, want 4", d)
	}
	want := []string{"b", "c", "d", "a"}
	for i, w := range want {
		select {
		case <-q.notify:
		default:
			t.Fatalf("no notify token before pop %d", i)
		}
		id, ok := q.pop()
		if !ok || id != w {
			t.Fatalf("pop %d = %q (%v), want %q", i, id, ok, w)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
	select {
	case <-q.notify:
		t.Fatal("notify token left after draining the queue")
	default:
	}
}

// TestOfferWatchWakesParkedAcquire pins the watch-channel contract: an
// acquire parked on the empty offer queue is woken by the next enqueue
// instead of waiting out its long-poll deadline, abandoned debris is
// discarded rather than granted, and a canceled request releases the watch
// without consuming an offer.
func TestOfferWatchWakesParkedAcquire(t *testing.T) {
	s := &Server{
		ctx:       context.Background(),
		drainCh:   make(chan struct{}),
		offerNote: make(chan struct{}, 1),
	}

	// A canceled request context unparks immediately, consuming nothing.
	ctx, cancel := context.WithCancel(context.Background())
	unparked := make(chan *attemptOffer, 1)
	go func() { unparked <- s.takeOffer(ctx, time.Minute) }()
	cancel()
	select {
	case off := <-unparked:
		if off != nil {
			t.Fatalf("canceled acquire got offer %+v", off)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled acquire stayed parked")
	}

	// A parked acquire is woken by the enqueue, well before its deadline.
	got := make(chan *attemptOffer, 1)
	go func() { got <- s.takeOffer(context.Background(), time.Minute) }()
	abandoned := &attemptOffer{}
	abandoned.claimed.Store(claimAbandoned)
	s.enqueueOffer(abandoned) // debris: must be skipped, not granted
	live := &attemptOffer{outcome: make(chan attemptOutcome, 1)}
	s.enqueueOffer(live)
	select {
	case off := <-got:
		if off != live {
			t.Fatalf("parked acquire got %+v, want the live offer", off)
		}
		if off.claimed.Load() != claimLeased {
			t.Fatalf("granted offer claim state = %d, want leased", off.claimed.Load())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue did not wake the parked acquire")
	}

	// The debris was swept; an immediate (wait 0) acquire finds nothing.
	if off := s.takeOffer(context.Background(), 0); off != nil {
		t.Fatalf("empty queue granted %+v", off)
	}
}
