package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paragraph/internal/remote"
)

// doneJob runs a two-shard job to completion on a fresh daemon and returns
// the daemon, its API URL and the job's id.
func doneJob(t testing.TB) (*Server, string, string) {
	t.Helper()
	s, api := testServer(t, t.TempDir(), nil)
	tid := registerTrace(t, api, writeTraceFile(t, synthTrace(t, 3000, 5)))
	id := submitJob(t, api, tid, testConfig, 2)
	if v := waitJob(t, api, id); v.State != StateDone {
		t.Fatalf("job finished %q, want done: %+v", v.State, v)
	}
	return s, api, id
}

// TestJobResultWithoutResult: a job-result file that decodes but carries no
// analysis result is refused with a classified error, and the result
// endpoint answers 500 with it. The handler used to dereference the nil
// Result and panic, and net/http dropped the connection.
func TestJobResultWithoutResult(t *testing.T) {
	s, api, id := doneJob(t)
	if err := s.st.saveResult(id, &JobResult{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.st.loadResult(id); !errors.Is(err, errNoResult) {
		t.Fatalf("loadResult = %v, want errNoResult", err)
	}
	resp, err := http.Get(api + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding the answer: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body["error"], "no analysis result") {
		t.Fatalf("GET result: status %d, body %v; want 500 naming the missing result", resp.StatusCode, body)
	}
}

// FuzzLoadResult feeds arbitrary bytes to loadResult as a job's result
// file — seeded with a done job's result.pgr, its two halves and the bare
// magic — and builds the JSON summary of every result it accepts, as the
// result endpoint does. Neither step may panic.
func FuzzLoadResult(f *testing.F) {
	s, _, id := doneJob(f)
	good, err := os.ReadFile(s.st.resultPath(id))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[len(good)/2:])
	f.Add([]byte(resultMagic))

	st, err := newState(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	const job = "fuzz"
	if err := os.MkdirAll(filepath.Dir(st.resultPath(job)), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(st.resultPath(job), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := st.loadResult(job)
		if err != nil {
			return
		}
		// A hostile file may carry a non-finite Available, which JSON
		// cannot encode; only a panic is a failure here.
		_, _ = json.Marshal(summarize(res, remote.Stats{}))
	})
}
