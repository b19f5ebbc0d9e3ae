package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"impacc/internal/serve"
)

// Serve-zipf load shape. The rate and Zipf exponent put about three
// quarters of submissions on cached or in-flight keys; the catalogue's
// artifacts exceed serve's default 64 MiB cache, so the LRU evicts and
// regenerates.
const (
	serveRate  = 60.0 // Poisson arrivals per second
	serveZipfS = 0.9
	// serveSetupEvery is how often the load phase times the construction of
	// a fresh server beside the loaded one; setup_s is their median. One
	// construction takes tens of microseconds, and the host's speed over a
	// burst of them differs by up to 2x from one second or process to the
	// next, so the samples are spread over the whole phase.
	serveSetupEvery = 20 * time.Millisecond
	// serveDrainGap ends the schedule this long before the time budget, so
	// the last jobs finish within it.
	serveDrainGap = time.Second
	// serveWarmup is the start of the schedule, while the empty cache takes
	// its compulsory misses, whose jobs are checked but not timed: a
	// long-lived server pays that burst once, not per job.
	serveWarmup = 2 * time.Second
	// serveEvictSpan is the schedule length by which every seed's traffic
	// has overflowed the cache; a run this long without an eviction fails.
	serveEvictSpan = 20 * time.Second
	// serveHeapWindow is the window peak_heap_mb takes its median over.
	serveHeapWindow = 5 * time.Second
)

// jobOutcome is one scheduled job as the client saw it.
type jobOutcome struct {
	due     time.Duration // offset in the schedule
	hit     bool          // answered from the cache on submission (HTTP 200)
	latency time.Duration // due time to full report body received
	lag     time.Duration // how late the generator sent it
	err     error
}

// liveServer is an in-process impacc-serve on a loopback listener.
type liveServer struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan struct{}
}

// newServer builds a server with serve's defaults (workers capped at the
// host's cores) and returns once its handler answers /healthz with 200.
func newServer(workers int) (*serve.Server, error) {
	srv := serve.New(serve.Config{Workers: workers})
	srv.Start()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		srv.Close()
		return nil, fmt.Errorf("serve: /healthz answered %d", rec.Code)
	}
	return srv, nil
}

// startServer builds a server and puts it on a loopback listener,
// returning once the listener answers /healthz.
func startServer(workers int) (*liveServer, error) {
	srv, err := newServer(workers)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, http: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		ls.http.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := c.Get(ls.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	ls.stop()
	return nil, fmt.Errorf("serve: /healthz did not answer 200 within 10 s")
}

// stop closes the listener and its connections, waits for the serve loop
// to return, then drains the server's workers.
func (ls *liveServer) stop() {
	ls.http.Close()
	<-ls.done
	ls.srv.Close()
}

// serveResult is one load phase's outcome.
type serveResult struct {
	setup    []time.Duration // constructions timed beside the load
	jobs     []jobOutcome
	wall     time.Duration       // first due time to last body received
	bodies   map[string][32]byte // job key -> digest of the first report body received
	counters map[string]float64
}

// setupSamples is what sampleSetups measured.
type setupSamples struct {
	times []time.Duration
	err   error
}

// sampleSetups times the construction of a fresh server, closed at once,
// every serveSetupEvery until stop closes or a construction fails, then
// sends what it measured.
func sampleSetups(workers int, stop <-chan struct{}, spans *spanLog) <-chan setupSamples {
	out := make(chan setupSamples, 1)
	go func() {
		var res setupSamples
		defer func() { out <- res }()
		t := time.NewTicker(serveSetupEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			sp := spans.begin("serve.setup", -1)
			t0 := time.Now()
			srv, err := newServer(workers)
			d := time.Since(t0)
			spans.end(sp)
			if err != nil {
				res.err = err
				return
			}
			srv.Close()
			res.times = append(res.times, d)
		}
	}()
	return out
}

// runServe drives ls with the seeded open-loop schedule at rate jobs per
// second over conns client connections, timing server constructions with
// workers workers beside it.
func runServe(ls *liveServer, seed uint64, rate float64, span time.Duration, workers, conns int, spans *spanLog) (*serveResult, error) {
	res := &serveResult{}
	cat := catalogue(seed)
	specs := make([][]byte, len(cat))
	for i, s := range cat {
		b, err := json.Marshal(serve.JobSpec{System: s.System, App: s.App, Mode: s.Mode, Style: s.Style,
			N: s.N, Iters: s.Iters, Class: s.Class, Edge: s.Edge, Steps: s.Steps, Verify: s.Verify, Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		specs[i] = b
	}
	sched := arrivals(seed, rate, span, len(cat), serveZipfS)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	defer client.CloseIdleConnections()

	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	bodies := map[string][32]byte{}
	res.bodies = bodies
	res.jobs = make([]jobOutcome, len(sched))
	stopSetups := make(chan struct{})
	setups := sampleSetups(workers, stopSetups, spans)
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.Due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &res.jobs[i]
			o.due, o.lag = a.Due, time.Since(due)
			sp := spans.begin("serve.job", -1)
			key, body, hit, err := submit(client, ls.base, specs[a.Job], spans, sp)
			o.latency, o.hit = time.Since(due), hit
			spans.end(sp)
			if err == nil {
				sum := sha256.Sum256(body)
				mu.Lock()
				if first, ok := bodies[key]; !ok {
					bodies[key] = sum
				} else if first != sum {
					err = fmt.Errorf("job %s: report body differs from the first one served", key)
				}
				mu.Unlock()
			}
			o.err = err
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	close(stopSetups)
	ss := <-setups
	if ss.err != nil {
		return nil, ss.err
	}
	res.setup = ss.times

	m, err := scrapeMetrics(client, ls.base)
	if err != nil {
		return nil, err
	}
	res.counters = m
	return res, nil
}

// submit posts one job and reads its report. A cache hit (200) fetches the
// report at once; an admitted or coalesced job (202) follows the job's
// event feed to its terminal state first.
func submit(c *http.Client, base string, spec []byte, spans *spanLog, parent int) (key string, body []byte, hit bool, err error) {
	sp := spans.begin("serve.POST", parent)
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		spans.end(sp)
		return "", nil, false, err
	}
	var st serve.Status
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	spans.end(sp)
	switch {
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		return "", nil, false, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	case derr != nil:
		return "", nil, false, fmt.Errorf("submit: %w", derr)
	}
	hit = resp.StatusCode == http.StatusOK
	if !hit {
		sp = spans.begin("serve.events", parent)
		state, err := followEvents(c, base+"/v1/jobs/"+st.Key+"/events")
		spans.end(sp)
		if err != nil {
			return st.Key, nil, hit, err
		}
		if state.State != "done" {
			return st.Key, nil, hit, fmt.Errorf("job %s ended %s: %s", st.Key, state.State, state.Error)
		}
	}
	sp = spans.begin("serve.report", parent)
	defer spans.end(sp)
	resp, err = c.Get(base + "/v1/jobs/" + st.Key + "/report")
	if err != nil {
		return st.Key, nil, hit, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("report %s: HTTP %d", st.Key, resp.StatusCode)
	}
	return st.Key, body, hit, err
}

// followEvents reads a job's SSE feed until the server ends it (after the
// terminal state event) and returns the last state event.
func followEvents(c *http.Client, url string) (*serve.Status, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var last serve.Status
	typ := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: ") && typ == "state":
			if err := json.Unmarshal([]byte(line[len("data: "):]), &last); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &last, nil
}

// scrapeMetrics reads serve's /metrics exposition into a map from series
// (name plus label set, as printed) to value.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// phaseMeanMs is the mean of one serve phase histogram, in milliseconds.
func phaseMeanMs(m map[string]float64, phase string) float64 {
	sel := `{phase="` + phase + `"}`
	n := m["serve_phase_latency_ns_count"+sel]
	if n == 0 {
		return 0
	}
	return m["serve_phase_latency_ns_sum"+sel] / n / 1e6
}

// latencies splits the latencies of jobs due after the warm-up, in
// milliseconds, by cache outcome; all holds every timed job, with failed
// ones at +Inf so they miss any limit.
func latencies(jobs []jobOutcome) (hits, misses, all []float64) {
	for _, o := range jobs {
		if o.due < serveWarmup {
			continue
		}
		ms := float64(o.latency) / 1e6
		if o.err != nil {
			all = append(all, math.Inf(1))
			continue
		}
		all = append(all, ms)
		if o.hit {
			hits = append(hits, ms)
		} else {
			misses = append(misses, ms)
		}
	}
	return hits, misses, all
}
