package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"impacc/internal/core"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func smallJob() JobSpec {
	return JobSpec{System: "beacon:2", App: "jacobi", N: 64, Iters: 2}
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec, wait bool) (*Status, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 400 {
		return nil, resp.StatusCode
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("bad status body %q: %v", data, err)
	}
	return &st, resp.StatusCode
}

func getBody(t *testing.T, ts *httptest.Server, path string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.StatusCode
}

func counterValue(t *testing.T, ts *httptest.Server, name string) string {
	t.Helper()
	metrics, code := getBody(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics -> %d", code)
	}
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
			f := strings.Fields(line)
			return f[len(f)-1]
		}
	}
	t.Fatalf("metric %s not exposed:\n%s", name, metrics)
	return ""
}

// TestSubmitRunFetch: the basic lifecycle — submit, wait, fetch all four
// artifacts.
func TestSubmitRunFetch(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, code := postJob(t, ts, smallJob(), true)
	if code != 200 || st.State != stateDone {
		t.Fatalf("waited submit -> %d %+v", code, st)
	}
	for _, art := range []string{"report", "report.txt", "profile", "trace"} {
		body, code := getBody(t, ts, "/v1/jobs/"+st.Key+"/"+art)
		if code != 200 || len(body) == 0 {
			t.Fatalf("artifact %s -> %d (%d bytes)", art, code, len(body))
		}
	}
	if _, code := getBody(t, ts, "/v1/jobs/"+st.Key); code != 200 {
		t.Fatalf("status -> %d", code)
	}
	if body, code := getBody(t, ts, "/v1/jobs"); code != 200 || !bytes.Contains(body, []byte(st.Key)) {
		t.Fatalf("list -> %d, missing key", code)
	}
}

// TestSingleFlightDedup: N concurrent identical submissions execute exactly
// one simulation and every caller reads byte-identical report bodies.
func TestSingleFlightDedup(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4})
	const n = 8
	var wg sync.WaitGroup
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(smallJob())
			resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st Status
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			keys[i] = st.Key
		}(i)
	}
	wg.Wait()
	bodies := make([][]byte, n)
	for i, key := range keys {
		if key == "" {
			t.Fatal("a submission returned no key")
		}
		if key != keys[0] {
			t.Fatalf("keys diverge: %s vs %s", key, keys[0])
		}
		body, code := getBody(t, ts, "/v1/jobs/"+key+"/report")
		if code != 200 {
			t.Fatalf("report %d -> %d", i, code)
		}
		bodies[i] = body
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("body %d differs from body 0", i)
		}
	}
	if runs := counterValue(t, ts, "serve_runs_total"); runs != "1" {
		t.Fatalf("serve_runs_total = %s, want 1 (single-flight)", runs)
	}
}

// TestCacheHitByteIdentical: a second submission of the same spec is a hit
// (state done, cached, no new run) and its artifacts are byte-identical to
// the first miss's.
func TestCacheHitByteIdentical(t *testing.T) {
	_, ts := testServer(t, Config{})
	st1, code := postJob(t, ts, smallJob(), true)
	if code != 200 {
		t.Fatalf("first submit -> %d", code)
	}
	first := map[string][]byte{}
	for _, art := range []string{"report", "report.txt", "profile", "trace"} {
		first[art], _ = getBody(t, ts, "/v1/jobs/"+st1.Key+"/"+art)
	}
	st2, code := postJob(t, ts, smallJob(), false)
	if code != 200 || !st2.Cached || st2.State != stateDone {
		t.Fatalf("second submit -> %d %+v, want immediate cache hit", code, st2)
	}
	if st2.Key != st1.Key {
		t.Fatalf("keys diverge: %s vs %s", st2.Key, st1.Key)
	}
	for art, want := range first {
		got, code := getBody(t, ts, "/v1/jobs/"+st1.Key+"/"+art)
		if code != 200 || !bytes.Equal(got, want) {
			t.Fatalf("artifact %s not byte-identical after hit (code %d)", art, code)
		}
	}
	if hits := counterValue(t, ts, "serve_cache_hits_total"); hits != "1" {
		t.Fatalf("serve_cache_hits_total = %s, want 1", hits)
	}
	if runs := counterValue(t, ts, "serve_runs_total"); runs != "1" {
		t.Fatalf("serve_runs_total = %s, want 1", runs)
	}
}

// TestDistinctSpecsDistinctKeys: changing any simulation-relevant field
// produces a different job key.
func TestDistinctSpecsDistinctKeys(t *testing.T) {
	base := smallJob()
	variants := []JobSpec{base}
	v := base
	v.Seed = 7
	variants = append(variants, v)
	v = base
	v.Iters = 3
	variants = append(variants, v)
	v = base
	v.Chaos = "7:straggle=*:1.5"
	variants = append(variants, v)
	v = base
	v.Mode = "legacy"
	variants = append(variants, v)
	seen := map[string]int{}
	for i, spec := range variants {
		c, err := compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[c.key]; dup {
			t.Fatalf("variant %d collides with %d", i, prev)
		}
		seen[c.key] = i
	}
	// Defaults resolve before hashing: an explicit default equals omission.
	explicit := base
	explicit.Seed = 2016
	explicit.Mode = "impacc"
	c1, _ := compile(base)
	c2, _ := compile(explicit)
	if c1.key != c2.key {
		t.Fatal("explicit defaults changed the key")
	}
}

// TestChaoticJobCachesToo: a chaos spec is part of the key and chaotic runs
// are deterministic, so they cache like healthy ones.
func TestChaoticJobCachesToo(t *testing.T) {
	_, ts := testServer(t, Config{})
	spec := smallJob()
	spec.Chaos = "7:degrade=*:4,rdmaflap=1:2ms:500us"
	st, code := postJob(t, ts, spec, true)
	if code != 200 || st.State != stateDone {
		t.Fatalf("chaotic submit -> %d %+v", code, st)
	}
	st2, code := postJob(t, ts, spec, false)
	if code != 200 || !st2.Cached {
		t.Fatalf("chaotic resubmit -> %d %+v, want hit", code, st2)
	}
}

// TestParSimCoalesces: par_sim is a wall-clock knob, not a simulation
// parameter, so a parallel submission of a job already run serially is a
// cache hit and every artifact is byte-identical — the sharded engine's
// determinism guarantee, exercised through the service's content address.
func TestParSimCoalesces(t *testing.T) {
	serial := smallJob()
	par := smallJob()
	par.ParSim = 8
	c1, err := compile(serial)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := compile(par)
	if err != nil {
		t.Fatal(err)
	}
	if c1.key != c2.key {
		t.Fatalf("par_sim changed the content address: %s vs %s", c1.key, c2.key)
	}

	_, ts := testServer(t, Config{})
	st1, code := postJob(t, ts, serial, true)
	if code != 200 || st1.State != stateDone {
		t.Fatalf("serial submit -> %d %+v", code, st1)
	}
	first := map[string][]byte{}
	for _, art := range []string{"report", "report.txt", "profile", "trace"} {
		first[art], _ = getBody(t, ts, "/v1/jobs/"+st1.Key+"/"+art)
	}
	st2, code := postJob(t, ts, par, false)
	if code != 200 || !st2.Cached || st2.Key != st1.Key {
		t.Fatalf("par_sim=8 resubmit -> %d %+v, want hit on %s", code, st2, st1.Key)
	}
	for art, want := range first {
		got, code := getBody(t, ts, "/v1/jobs/"+st1.Key+"/"+art)
		if code != 200 || !bytes.Equal(got, want) {
			t.Fatalf("artifact %s not byte-identical across par_sim (code %d)", art, code)
		}
	}
	if runs := counterValue(t, ts, "serve_runs_total"); runs != "1" {
		t.Fatalf("serve_runs_total = %s, want 1 (parallel submission coalesced)", runs)
	}

	// And the reverse order — parallel first, serial hit — with the worker
	// actually honoring the knob on the miss.
	_, ts2 := testServer(t, Config{})
	stp, code := postJob(t, ts2, par, true)
	if code != 200 || stp.State != stateDone {
		t.Fatalf("parallel submit -> %d %+v", code, stp)
	}
	rep, _ := getBody(t, ts2, "/v1/jobs/"+stp.Key+"/report")
	if !bytes.Equal(rep, first["report"]) {
		t.Fatal("report from a par_sim=8 run differs from the serial run's bytes")
	}
	sts, code := postJob(t, ts2, serial, false)
	if code != 200 || !sts.Cached || sts.Key != stp.Key {
		t.Fatalf("serial resubmit -> %d %+v, want hit on %s", code, sts, stp.Key)
	}
}

// TestParSimClamped: a client's par_sim is clamped to [1, GOMAXPROCS]
// before it reaches the engine, and clamping never moves the content
// address. The specs are only compiled, never run.
func TestParSimClamped(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	base, err := compile(smallJob())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ parSim, want int }{
		{0, 1}, {-5, 1}, {1, 1}, {procs, procs}, {procs + 1, procs}, {1 << 30, procs},
	} {
		spec := smallJob()
		spec.ParSim = c.parSim
		got, err := compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.cfg.Parallel != c.want {
			t.Errorf("par_sim=%d compiled to Parallel=%d, want %d", c.parSim, got.cfg.Parallel, c.want)
		}
		if got.key != base.key {
			t.Errorf("par_sim=%d changed the job key: %s vs %s", c.parSim, got.key, base.key)
		}
	}
}

// TestSubmitBodyLimit: a job spec body past the fixed cap is refused with
// 413 and an error naming the limit, before any of it is decoded.
func TestSubmitBodyLimit(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := `{"system":"beacon:2","app":"jacobi","chaos":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec -> %d %q, want 413", resp.StatusCode, apiErr.Error)
	}
	if want := strconv.Itoa(maxSpecBytes); !strings.Contains(apiErr.Error, want) {
		t.Fatalf("error %q does not name the %s-byte limit", apiErr.Error, want)
	}
	// A spec under the cap is still accepted.
	if st, code := postJob(t, ts, smallJob(), true); code != http.StatusOK || st.State != stateDone {
		t.Fatalf("small spec after an oversized one -> %d %+v", code, st)
	}
}

// TestOverload: with the workers not yet started, submissions beyond the
// queue capacity are rejected with 429 + Retry-After while admitted jobs
// stay queued; starting the workers then drains everything.
func TestOverload(t *testing.T) {
	s := New(Config{QueueCap: 2, RetryAfterSec: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	specs := make([]JobSpec, 3)
	for i := range specs {
		specs[i] = smallJob()
		specs[i].Seed = uint64(1000 + i) // distinct keys
	}
	var keys []string
	for i, spec := range specs[:2] {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != 202 {
			t.Fatalf("submit %d -> %d, want 202", i, resp.StatusCode)
		}
		keys = append(keys, st.Key)
	}
	body, _ := json.Marshal(specs[2])
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("overflow submit -> %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want 3", ra)
	}
	if v := counterValue(t, ts, "serve_admission_rejected_total"); v != "1" {
		t.Fatalf("serve_admission_rejected_total = %s, want 1", v)
	}
	if v := counterValue(t, ts, "serve_queue_depth"); v != "2" {
		t.Fatalf("serve_queue_depth = %s, want 2", v)
	}

	// Relieve the overload: the queued jobs must complete untouched.
	s.Start()
	for _, key := range keys {
		s.Wait(key)
		if _, code := getBody(t, ts, "/v1/jobs/"+key+"/report"); code != 200 {
			t.Fatalf("queued job %s did not complete after drain (%d)", key, code)
		}
	}
}

// TestCancelQueuedJob: cancelling a queued job (workers stopped) marks it
// cancelled, caches nothing, and a resubmission runs fresh.
func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{QueueCap: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	st, code := postJob(t, ts, smallJob(), false)
	if code != 202 {
		t.Fatalf("submit -> %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.Key, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cancel -> %d", resp.StatusCode)
	}

	s.Start()
	s.Wait(st.Key)
	got, ok := s.Status(st.Key)
	if !ok || got.State != stateCancelled {
		t.Fatalf("state = %+v, want cancelled", got)
	}
	if _, code := getBody(t, ts, "/v1/jobs/"+st.Key+"/report"); code == 200 {
		t.Fatal("cancelled job served a report")
	}
	if v := counterValue(t, ts, "serve_runs_total"); v != "0" {
		t.Fatalf("cancelled-before-start job still ran (%s runs)", v)
	}

	// Resubmit: runs fresh and completes.
	st2, code := postJob(t, ts, smallJob(), true)
	if code != 200 || st2.State != stateDone {
		t.Fatalf("resubmit -> %d %+v", code, st2)
	}
	if st2.Key != st.Key {
		t.Fatalf("resubmit changed the key: %s vs %s", st2.Key, st.Key)
	}
	if v := counterValue(t, ts, "serve_runs_total"); v != "1" {
		t.Fatalf("resubmit after cancel: serve_runs_total = %s, want 1", v)
	}
}

// TestCancelRunningJob: a job cancelled mid-run lands in state cancelled,
// merges nothing into the cache, and resubmission re-runs and matches a
// never-cancelled baseline byte for byte.
func TestCancelRunningJob(t *testing.T) {
	// A heavier job so the cancel has a window to land mid-run.
	big := JobSpec{System: "beacon:2", App: "jacobi", N: 512, Iters: 50}

	// Baseline bytes from an untouched server.
	_, ref := testServer(t, Config{})
	refSt, code := postJob(t, ref, big, true)
	if code != 200 {
		t.Fatalf("baseline -> %d", code)
	}
	want, _ := getBody(t, ref, "/v1/jobs/"+refSt.Key+"/report")

	s, ts := testServer(t, Config{Workers: 1})
	st, code := postJob(t, ts, big, false)
	if code != 202 {
		t.Fatalf("submit -> %d", code)
	}
	s.Cancel(st.Key) // may land before, during, or just after the run
	s.Wait(st.Key)
	got, ok := s.Status(st.Key)
	if !ok {
		t.Fatal("job vanished")
	}
	if got.State == stateCancelled && got.Cached {
		t.Fatal("cancelled job left artifacts in the cache")
	}
	// Whatever the race outcome, a fresh submission must produce the
	// baseline bytes.
	st2, code := postJob(t, ts, big, true)
	if code != 200 || st2.State != stateDone {
		t.Fatalf("resubmit -> %d %+v", code, st2)
	}
	fresh, code := getBody(t, ts, "/v1/jobs/"+st2.Key+"/report")
	if code != 200 || !bytes.Equal(fresh, want) {
		t.Fatalf("post-cancel rerun diverged from baseline (code %d)", code)
	}
}

// TestBadSpecRejected: compile errors surface as 400, not 500, and execute
// nothing.
func TestBadSpecRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, spec := range []JobSpec{
		{System: "nonsense", App: "jacobi"},
		{System: "beacon:2", App: "nonsense"},
		{System: "beacon:2", App: "ep", Class: "Z"},
		{System: "beacon:2", App: "jacobi", Chaos: "garbage"},
		{System: "beacon:2", App: "jacobi", Mode: "hybrid"},
	} {
		if _, code := postJob(t, ts, spec, false); code != 400 {
			t.Errorf("spec %+v -> %d, want 400", spec, code)
		}
	}
	if v := counterValue(t, ts, "serve_runs_total"); v != "0" {
		t.Fatalf("bad specs executed %s runs", v)
	}
}

// TestFailedRunNotCached: a job that hits a resource cap fails
// deterministically and leaves the cache empty.
func TestFailedRunNotCached(t *testing.T) {
	s, ts := testServer(t, Config{Limits: coreLimitsMaxEvents(50)})
	st, code := postJob(t, ts, smallJob(), true)
	if code != 200 || st.State != stateFailed {
		t.Fatalf("capped job -> %d %+v, want failed", code, st)
	}
	if !strings.Contains(st.Error, "events limit") {
		t.Fatalf("error %q does not name the cap", st.Error)
	}
	if s.cache.len() != 0 {
		t.Fatal("failed run was cached")
	}
	if v := counterValue(t, ts, "serve_runs_failed_total"); v != "1" {
		t.Fatalf("serve_runs_failed_total = %s, want 1", v)
	}
}

// TestLRUEviction: the byte bound evicts least-recently-used results, the
// eviction counter moves, and an evicted job answers 410 until resubmitted.
func TestLRUEviction(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, code := postJob(t, ts, smallJob(), true)
	if code != 200 {
		t.Fatalf("seed job -> %d", code)
	}
	onDisk, _ := getBody(t, ts, "/v1/jobs/"+st.Key+"/report")

	// A cache sized to hold roughly one such result set: the second job
	// must push the first out.
	s2 := New(Config{CacheBytes: int64(len(onDisk)) * 3})
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()

	first, code := postJobOn(t, ts2, smallJob())
	if code != 200 {
		t.Fatalf("first -> %d", code)
	}
	other := smallJob()
	other.Seed = 77
	if _, code := postJobOn(t, ts2, other); code != 200 {
		t.Fatalf("second -> %d", code)
	}
	if _, code := getBody(t, ts2, "/v1/jobs/"+first.Key+"/report"); code != 410 {
		t.Fatalf("evicted artifact -> %d, want 410 Gone", code)
	}
	if v := counterValue(t, ts2, "serve_cache_evictions_total"); v == "0" {
		t.Fatal("eviction counter did not move")
	}
	// Resubmission regenerates identical bytes.
	re, code := postJobOn(t, ts2, smallJob())
	if code != 200 {
		t.Fatalf("resubmit -> %d", code)
	}
	regenerated, code := getBody(t, ts2, "/v1/jobs/"+re.Key+"/report")
	if code != 200 || !bytes.Equal(regenerated, onDisk) {
		t.Fatalf("regenerated artifact differs from the original run (code %d)", code)
	}
}

func postJobOn(t *testing.T, ts *httptest.Server, spec JobSpec) (*Status, int) {
	t.Helper()
	return postJob(t, ts, spec, true)
}

// TestMetricsPreCreated: every advertised series exists before any job.
func TestMetricsPreCreated(t *testing.T) {
	_, ts := testServer(t, Config{})
	metrics, code := getBody(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics -> %d", code)
	}
	for _, name := range []string{
		"serve_cache_hits_total", "serve_cache_misses_total", "serve_cache_evictions_total",
		"serve_jobs_coalesced_total", "serve_admission_rejected_total",
		"serve_runs_total", "serve_runs_failed_total", "serve_jobs_cancelled_total",
		"serve_queue_depth", "serve_cache_bytes", "serve_cache_entries",
		"serve_job_age_seconds", "serve_phase_latency_ns",
	} {
		if !bytes.Contains(metrics, []byte(name)) {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
}

// TestHealthz: liveness endpoint answers without touching the pipeline.
func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{})
	body, code := getBody(t, ts, "/healthz")
	if code != 200 || string(body) != "ok\n" {
		t.Fatalf("/healthz -> %d %q", code, body)
	}
}

// TestUnknownJobRoutes: status/artifact/cancel for unseen keys are 404.
func TestUnknownJobRoutes(t *testing.T) {
	_, ts := testServer(t, Config{})
	if _, code := getBody(t, ts, "/v1/jobs/deadbeef"); code != 404 {
		t.Fatalf("status -> %d", code)
	}
	if _, code := getBody(t, ts, "/v1/jobs/deadbeef/report"); code != 404 {
		t.Fatalf("artifact -> %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/deadbeef", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("cancel -> %d", resp.StatusCode)
	}
}

// coreLimitsMaxEvents builds a core.Limits with only MaxEvents set.
func coreLimitsMaxEvents(n int64) core.Limits {
	return core.Limits{MaxEvents: n}
}

// TestPresetErrorSurfacesVerbatim: a bad system selector — here a node
// count on a fixed-size preset — must reach the API client exactly as the
// topo package phrased it, so the 400 body names the offending selector
// instead of a generic "bad spec".
func TestPresetErrorSurfacesVerbatim(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, system := range []string{"psg:8", "hetero:4"} {
		bad := smallJob()
		bad.System = system
		body, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 400 {
			t.Fatalf("%s -> %d, want 400", system, resp.StatusCode)
		}
		var ae struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &ae); err != nil {
			t.Fatalf("bad error body %q: %v", data, err)
		}
		// The exact message topo.Preset produces, verbatim.
		if got, want := ae.Error, `topo: system "`+strings.Split(system, ":")[0]+`" is fixed-size and takes no node count (got "`+system+`")`; got != want {
			t.Fatalf("error body %q, want %q", got, want)
		}
	}
}

// TestLeanChangesKey: lean changes what a big run reports, so unlike
// par_sim it must move the content address.
func TestLeanChangesKey(t *testing.T) {
	plain := smallJob()
	lean := smallJob()
	lean.Lean = true
	c1, err := compile(plain)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := compile(lean)
	if err != nil {
		t.Fatal(err)
	}
	if c1.key == c2.key {
		t.Fatal("lean did not change the content address")
	}
}

// TestGeneratedTopologyJob: the generated large-scale selectors are
// reachable through the job API like any preset.
func TestGeneratedTopologyJob(t *testing.T) {
	_, ts := testServer(t, Config{})
	job := JobSpec{System: "fattree:4", App: "jacobi", N: 64, Iters: 1}
	st, code := postJob(t, ts, job, true)
	if code != 200 || st.State != stateDone {
		t.Fatalf("fattree job -> %d %+v", code, st)
	}
}
