package serve

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"paragraph/internal/core"
	"paragraph/internal/shard"
	"paragraph/internal/trace"
)

// submitKind queues a job of either engine under either read mode.
func submitKind(t *testing.T, api, traceID string, shards int, speculate, degraded bool) string {
	t.Helper()
	var resp map[string]string
	code, raw := postJSON(t, api+"/v1/jobs", map[string]any{
		"trace": traceID, "config": testConfig, "shards": shards,
		"speculate": speculate, "degraded": degraded,
	}, &resp)
	if code != http.StatusAccepted {
		t.Fatalf("submitting job: status %d: %s", code, raw)
	}
	return resp["id"]
}

// scanCount is the number of trace scans the server's planner has run.
func scanCount(s *Server) int {
	s.scans.mu.Lock()
	defer s.scans.mu.Unlock()
	return s.scans.scans
}

// checkMonolithic runs a job to completion and compares its result with a
// monolithic analysis of data.
func checkMonolithic(t *testing.T, api, jid string, data []byte, degraded bool) *JobResult {
	t.Helper()
	if v := waitJob(t, api, jid); v.State != StateDone {
		t.Fatalf("job %s finished %q, want done: %+v", jid, v.State, v)
	}
	got := fetchGobResult(t, api, jid)
	var rs trace.ReadStats
	want, err := core.AnalyzeTraceOpts(context.Background(), bytes.NewReader(data), testConfig,
		core.TwoPassOptions{Degraded: degraded, Stats: &rs})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, want) {
		t.Errorf("job %s: result differs from the monolithic analysis", jid)
	}
	if got.ReadStats != rs {
		t.Errorf("job %s: read stats %+v, want %+v", jid, got.ReadStats, rs)
	}
	return got
}

// TestScanMemoOncePerContent: jobs over one registered trace, of both
// kinds, under both read modes and with different shard counts, scan the
// trace once per read mode; every later job groups the memoized scan, and
// every result equals the monolithic analysis.
func TestScanMemoOncePerContent(t *testing.T) {
	data := synthTrace(t, 20000, 7)
	s, api := testServer(t, t.TempDir(), nil)
	tid := registerTrace(t, api, writeTraceFile(t, data))
	for _, c := range []struct {
		shards              int
		speculate, degraded bool
	}{
		{3, false, false}, {5, true, false}, {2, false, true},
		{4, true, true}, {4, false, false}, {6, true, true},
	} {
		jid := submitKind(t, api, tid, c.shards, c.speculate, c.degraded)
		checkMonolithic(t, api, jid, data, c.degraded)
	}
	if n := scanCount(s); n != 2 {
		t.Errorf("%d scans for one content under two read modes, want 2", n)
	}
}

// TestScanMemoConcurrentJobs: jobs submitted at once share the memo from
// several workers. Every result equals the monolithic analysis, and each
// worker scans at most once, on its first job, before any scan of the
// content has landed.
func TestScanMemoConcurrentJobs(t *testing.T) {
	data := synthTrace(t, 20000, 9)
	const workers = 3
	s, api := testServer(t, t.TempDir(), func(o *Options) { o.Workers = workers })
	tid := registerTrace(t, api, writeTraceFile(t, data))
	var jids []string
	for i := 0; i < 8; i++ {
		jids = append(jids, submitKind(t, api, tid, 2+i%4, i%2 == 1, false))
	}
	for _, jid := range jids {
		checkMonolithic(t, api, jid, data, false)
	}
	if n := scanCount(s); n < 1 || n > workers {
		t.Errorf("%d scans by %d workers of one content, want 1 to %d", n, workers, workers)
	}
}

// TestScanMemoRescansRewrittenTrace: a trace rewritten between jobs — at
// the same size, so only its content tells — is scanned again, and the
// job's result is the monolithic analysis of the new bytes.
func TestScanMemoRescansRewrittenTrace(t *testing.T) {
	data := synthTrace(t, 20000, 8)
	path := writeTraceFile(t, data)
	s, api := testServer(t, t.TempDir(), nil)
	tid := registerTrace(t, api, path)
	checkMonolithic(t, api, submitKind(t, api, tid, 4, false, true), data, true)

	damaged := bytes.Clone(data)
	damaged[len(damaged)/2] ^= 0x40
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	got := checkMonolithic(t, api, submitKind(t, api, tid, 4, true, true), damaged, true)
	if got.ReadStats.SkippedChunks == 0 {
		t.Errorf("rewritten trace read as the old one: %+v", got.ReadStats)
	}
	if n := scanCount(s); n != 2 {
		t.Errorf("%d scans for two contents, want 2", n)
	}
	checkMonolithic(t, api, submitKind(t, api, tid, 3, false, true), damaged, true)
	if n := scanCount(s); n != 2 {
		t.Errorf("%d scans after a third job over the second content, want 2", n)
	}
}

// TestScanMemoHoldsNoTraceBytes: a memo entry is plain data — no byte
// slice, string or reference of any kind that could hold or pin the trace
// bytes it was scanned from.
func TestScanMemoHoldsNoTraceBytes(t *testing.T) {
	var walk func(rt reflect.Type, path string)
	walk = func(rt reflect.Type, path string) {
		switch rt.Kind() {
		case reflect.Struct:
			for i := 0; i < rt.NumField(); i++ {
				f := rt.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(rt.Elem(), path+"[i]")
		case reflect.Slice:
			if rt.Elem().Kind() == reflect.Uint8 {
				t.Errorf("%s is a byte slice", path)
			}
			walk(rt.Elem(), path+"[i]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s (%s) could hold trace bytes", path, rt)
		}
	}
	walk(reflect.TypeOf(scanEntry{}), "scanEntry")
}

// TestDaemonResumeRejectsRewrittenTrace: the daemon dies after shard 0
// lands, a byte inside shard 0's range is flipped — the trace keeps its
// size — and a restarted daemon refuses to resume the job from shard 0's
// persisted result of the old bytes: the job fails, naming the change.
func TestDaemonResumeRejectsRewrittenTrace(t *testing.T) {
	data := synthTrace(t, 20000, 3)
	path := writeTraceFile(t, data)
	stateDir := t.TempDir()

	s1, api1 := testServer(t, stateDir, nil)
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
	tid := registerTrace(t, api1, path)
	jid := submitJob(t, api1, tid, testConfig, 5)
	select {
	case <-crashed:
	case <-time.After(60 * time.Second):
		t.Fatal("job never reached its first shard")
	}
	s1.kill()

	plan, err := shard.LoadPlan(filepath.Join(stateDir, "jobs", jid, "plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	sh0 := plan.Shards[0]
	data[(sh0.Start+sh0.End)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, api2 := testServer(t, stateDir, nil)
	v := waitJob(t, api2, jid)
	if v.State != StateFailed || !strings.Contains(v.Error, "trace changed") {
		t.Fatalf("resume over a rewritten trace finished %q (error %q), want failed with a changed-trace error",
			v.State, v.Error)
	}
}
