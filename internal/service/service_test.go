package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnnlock/internal/core"
	"dnnlock/internal/harness"
)

// postJSON submits a body and decodes the JSON response.
func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// getJSON fetches a URL and decodes the JSON response.
func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// pollJob polls GET /jobs/{id} until pred accepts the view or the deadline
// expires.
func pollJob(t *testing.T, base, id string, timeout time.Duration, pred func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		_, v := getJSON(t, base+"/jobs/"+id)
		if pred(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out polling job %s; last view: %v", id, v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func terminal(v map[string]any) bool {
	switch v["state"] {
	case "completed", "failed", "cancelled":
		return true
	}
	return false
}

// TestDaemonBackpressureAndDrain drives the pool/backpressure/drain
// machinery with a fake blocking runner: one worker, queue depth one, so
// the third submit must be rejected with 429 + Retry-After, and a drain
// must shut the pool down cleanly.
func TestDaemonBackpressureAndDrain(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	s.runJob = func(_ int, j *Job) {
		j.setState(StateRunning)
		<-block
		j.setState(StateCompleted)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := map[string]any{"kind": "decrypt", "model": "mlp", "key_bits": 4}
	resp1, v1 := postJSON(t, ts.URL+"/jobs", spec)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: got %d, want 202 (%v)", resp1.StatusCode, v1)
	}
	id1 := v1["id"].(string)
	pollJob(t, ts.URL, id1, 5*time.Second, func(v map[string]any) bool {
		return v["state"] == "running"
	})

	// Worker is blocked on job 1; job 2 fills the only queue slot.
	resp2, v2 := postJSON(t, ts.URL+"/jobs", spec)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: got %d, want 202 (%v)", resp2.StatusCode, v2)
	}
	// Queue full: job 3 must bounce with backpressure.
	resp3, v3 := postJSON(t, ts.URL+"/jobs", spec)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: got %d, want 429 (%v)", resp3.StatusCode, v3)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("429 response is missing the Retry-After header")
	}

	// Suspend is accepted for a queued decrypt job.
	suspResp, _ := postJSON(t, ts.URL+"/jobs/"+v2["id"].(string)+"/suspend", nil)
	if suspResp.StatusCode != http.StatusAccepted {
		t.Fatalf("suspend queued job: got %d, want 202", suspResp.StatusCode)
	}

	// A bad spec is rejected before touching the queue.
	respBad, _ := postJSON(t, ts.URL+"/jobs", map[string]any{"model": "mlp"})
	if respBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: got %d, want 400", respBad.StatusCode)
	}

	if resp, v := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK || v["status"] != "ok" {
		t.Fatalf("healthz: got %d %v", resp.StatusCode, v)
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if rej := m["jobs"].(map[string]any)["rejected"].(float64); rej < 1 {
		t.Errorf("metrics rejected = %v, want >= 1", rej)
	}

	// Drain: unblock the worker, then shut down; both jobs finish.
	close(block)
	if !s.Drain(5 * time.Second) {
		t.Fatal("drain did not complete")
	}
	if resp, v := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable || v["status"] != "draining" {
		t.Fatalf("healthz while draining: got %d %v", resp.StatusCode, v)
	}
	respAfter, _ := postJSON(t, ts.URL+"/jobs", spec)
	if respAfter.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: got %d, want 503", respAfter.StatusCode)
	}
}

// TestDaemonEndToEndParity runs a real MLP 4-bit decrypt job through the
// HTTP API and checks its query/round counts match a direct harness run of
// the same cell — the same parity the check.sh daemon smoke verifies.
func TestDaemonEndToEndParity(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a cell")
	}
	// Direct reference run, exactly as the daemon's runner constructs it.
	cell, err := harness.PrepareCell("mlp", 4, harness.TinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Run(cell.WhiteBox(), cell.Spec(), cell.NewOracle(), cell.DecryptConfig())
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(10 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, v := postJSON(t, ts.URL+"/jobs", map[string]any{
		"kind": "decrypt", "model": "mlp", "key_bits": 4, "scale": "tiny",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d (%v)", resp.StatusCode, v)
	}
	id := v["id"].(string)
	final := pollJob(t, ts.URL, id, 120*time.Second, terminal)
	if final["state"] != "completed" {
		t.Fatalf("job ended %v: %v", final["state"], final["error"])
	}
	res := final["result"].(map[string]any)
	if got, want := int64(res["queries"].(float64)), ref.Queries; got != want {
		t.Errorf("daemon queries = %d, direct run = %d", got, want)
	}
	if got, want := int64(res["rounds"].(float64)), ref.Rounds; got != want {
		t.Errorf("daemon rounds = %d, direct run = %d", got, want)
	}
	if res["equivalent"] != ref.Equivalent {
		t.Errorf("daemon equivalent = %v, direct run = %v", res["equivalent"], ref.Equivalent)
	}
	if fid := res["fidelity"].(float64); fid != cell.Fidelity(ref.Key) {
		t.Errorf("daemon fidelity = %v, direct run = %v", fid, cell.Fidelity(ref.Key))
	}

	// The job's trace is served as JSONL with a root "job" span.
	traceResp, err := http.Get(ts.URL + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 1<<20)
	n, _ := traceResp.Body.Read(raw)
	traceResp.Body.Close()
	if !strings.Contains(string(raw[:n]), `"name":"job"`) {
		t.Errorf("trace output lacks the job root span: %.200s", raw[:n])
	}

	// The final checkpoint is downloadable.
	ckResp, err := http.Get(ts.URL + "/jobs/" + id + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	ckResp.Body.Close()
	if ckResp.StatusCode != http.StatusOK {
		t.Errorf("checkpoint: got %d, want 200", ckResp.StatusCode)
	}
}

// TestDaemonSuspendResume suspends a running decrypt job at its first site
// boundary, resumes it over the API, and checks the finished job matches a
// direct uninterrupted run — the service-level face of the checkpoint
// bit-identity property.
func TestDaemonSuspendResume(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a cell")
	}
	cell, err := harness.PrepareCell("mlp", 4, harness.TinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Run(cell.WhiteBox(), cell.Spec(), cell.NewOracle(), cell.DecryptConfig())
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(10 * time.Second)
	// Land a suspend request at exactly the first site boundary: tiny-scale
	// jobs finish in milliseconds, so racing an HTTP suspend against the
	// run would be flaky. The hook fires once; the resumed attempt runs to
	// completion.
	var suspended atomic.Bool
	s.ckptHook = func(j *Job) {
		if suspended.CompareAndSwap(false, true) {
			j.stop.CompareAndSwap(stopNone, stopSuspend)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, v := postJSON(t, ts.URL+"/jobs", map[string]any{
		"kind": "decrypt", "model": "mlp", "key_bits": 4,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d (%v)", resp.StatusCode, v)
	}
	id := v["id"].(string)

	susp := pollJob(t, ts.URL, id, 120*time.Second, func(v map[string]any) bool {
		return v["state"] == "suspended" || terminal(v)
	})
	if susp["state"] != "suspended" {
		t.Fatalf("job reached %v instead of suspending at the first boundary", susp["state"])
	}
	if susp["has_checkpoint"] != true {
		t.Fatal("suspended job has no checkpoint")
	}
	prog := susp["progress"].(map[string]any)
	if done := prog["sites_done"].(float64); done != 1 {
		t.Errorf("suspended with sites_done = %v, want 1 (first boundary)", done)
	}

	// Suspending again conflicts; resuming requeues a new attempt.
	again, _ := postJSON(t, ts.URL+"/jobs/"+id+"/suspend", nil)
	if again.StatusCode != http.StatusConflict {
		t.Fatalf("double suspend: got %d, want 409", again.StatusCode)
	}
	resResp, resV := postJSON(t, ts.URL+"/jobs/"+id+"/resume", nil)
	if resResp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume: got %d (%v)", resResp.StatusCode, resV)
	}
	if att := resV["attempt"].(float64); att != 2 {
		t.Errorf("resumed attempt = %v, want 2", att)
	}

	final := pollJob(t, ts.URL, id, 120*time.Second, terminal)
	if final["state"] != "completed" {
		t.Fatalf("resumed job ended %v: %v", final["state"], final["error"])
	}
	res := final["result"].(map[string]any)
	if got, want := int64(res["queries"].(float64)), ref.Queries; got != want {
		t.Errorf("resumed queries = %d, uninterrupted = %d", got, want)
	}
	if got, want := int64(res["rounds"].(float64)), ref.Rounds; got != want {
		t.Errorf("resumed rounds = %d, uninterrupted = %d", got, want)
	}
	if fid := res["fidelity"].(float64); fid != cell.Fidelity(ref.Key) {
		t.Errorf("resumed fidelity = %v, uninterrupted = %v", fid, cell.Fidelity(ref.Key))
	}

	// Resuming a completed job conflicts.
	resAgain, _ := postJSON(t, ts.URL+"/jobs/"+id+"/resume", nil)
	if resAgain.StatusCode != http.StatusConflict {
		t.Fatalf("resume of completed job: got %d, want 409", resAgain.StatusCode)
	}
}

// TestJobSpecNormalize exercises spec validation and defaults.
func TestJobSpecNormalize(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"defaults", JobSpec{Model: "mlp", KeyBits: 4}, true},
		{"monolithic", JobSpec{Kind: KindMonolithic, Model: "mlp", KeyBits: 4}, true},
		{"farm defaults", JobSpec{Model: "mlp", KeyBits: 4, Oracle: OracleSpec{Channel: "farm"}}, true},
		{"no model", JobSpec{KeyBits: 4}, false},
		{"bad kind", JobSpec{Kind: "gnn", Model: "mlp", KeyBits: 4}, false},
		{"bad bits", JobSpec{Model: "mlp", KeyBits: 0}, false},
		{"bad scale", JobSpec{Model: "mlp", KeyBits: 4, Scale: "huge"}, false},
		{"bad channel", JobSpec{Model: "mlp", KeyBits: 4, Oracle: OracleSpec{Channel: "carrier-pigeon"}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.normalize()
			if tc.ok && err != nil {
				t.Fatalf("normalize: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("normalize accepted an invalid spec")
			}
			if tc.ok {
				if tc.spec.Kind == "" || tc.spec.Scale == "" || tc.spec.Oracle.Channel == "" {
					t.Errorf("defaults not filled: %+v", tc.spec)
				}
				if tc.spec.Oracle.Channel == "farm" && (tc.spec.Oracle.Mix == "" || tc.spec.Oracle.Devices == 0) {
					t.Errorf("farm defaults not filled: %+v", tc.spec.Oracle)
				}
			}
		})
	}
}

// TestDaemonStatePersistence checks the state-dir round trip: a suspended
// job survives a daemon restart with its checkpoint intact and resumes to
// completion.
func TestDaemonStatePersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a cell")
	}
	dir := t.TempDir()

	s1, err := New(Config{Workers: 1, QueueDepth: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.ckptHook = func(j *Job) { j.stop.CompareAndSwap(stopNone, stopSuspend) }
	ts1 := httptest.NewServer(s1.Handler())

	_, v := postJSON(t, ts1.URL+"/jobs", map[string]any{
		"kind": "decrypt", "model": "mlp", "key_bits": 4,
	})
	id := v["id"].(string)
	susp := pollJob(t, ts1.URL, id, 120*time.Second, func(v map[string]any) bool {
		return v["state"] == "suspended" || terminal(v)
	})
	if susp["state"] != "suspended" {
		t.Fatalf("job reached %v instead of suspending at the first boundary", susp["state"])
	}
	s1.Drain(10 * time.Second)
	ts1.Close()

	// Restart over the same state dir: the suspended job is reloaded and
	// waits for an explicit resume.
	s2, err := New(Config{Workers: 1, QueueDepth: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(10 * time.Second)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	_, reloaded := getJSON(t, ts2.URL+"/jobs/"+id)
	if reloaded["state"] != "suspended" {
		t.Fatalf("reloaded job state = %v, want suspended", reloaded["state"])
	}
	if reloaded["has_checkpoint"] != true {
		t.Fatal("reloaded job lost its checkpoint")
	}
	resResp, _ := postJSON(t, ts2.URL+"/jobs/"+id+"/resume", nil)
	if resResp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume after restart: got %d", resResp.StatusCode)
	}
	final := pollJob(t, ts2.URL, id, 120*time.Second, terminal)
	if final["state"] != "completed" {
		t.Fatalf("job after restart ended %v: %v", final["state"], final["error"])
	}
	if eq := final["result"].(map[string]any)["equivalent"]; eq != true {
		t.Errorf("cross-process resumed job not equivalent: %v", eq)
	}
}

// TestDaemonSkipsForeignStateFiles: a state file whose view.id is empty or
// differs from its base name is skipped with a warning, as corrupt JSON is,
// instead of crashing startup or letting two files claim one job.
func TestDaemonSkipsForeignStateFiles(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"empty.json":   `{}`,
		".json":        `{"view": {"id": ""}}`,
		"j000009.json": `{"view": {"id": "j000003", "state": "suspended"}}`,
		"j000007.json": `{"view": {"id": "j000007", "state": "suspended"}}`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Workers: 1, QueueDepth: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)
	if len(s.order) != 1 || s.order[0] != "j000007" {
		t.Fatalf("loaded jobs %v, want only j000007", s.order)
	}
	if s.nextID != 7 {
		t.Fatalf("next id counter = %d, want 7", s.nextID)
	}
}

// TestShardForStable pins the resharding hash: same (id, attempt) always
// maps to the same shard, and different attempts can move shards.
func TestShardForStable(t *testing.T) {
	s, err := New(Config{Workers: 4, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("j%06d", i)
		for attempt := 1; attempt <= 3; attempt++ {
			a := s.shardFor(id, attempt)
			b := s.shardFor(id, attempt)
			if a != b {
				t.Fatalf("shardFor(%q, %d) unstable: %d vs %d", id, attempt, a, b)
			}
			if a < 0 || a >= 4 {
				t.Fatalf("shardFor(%q, %d) = %d out of range", id, attempt, a)
			}
		}
	}
}
