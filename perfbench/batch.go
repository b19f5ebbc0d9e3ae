package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"impacc/internal/apps"
	"impacc/internal/core"
	"impacc/internal/device"
	"impacc/internal/msg"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// leanTraceRanks is the rank count above which a lean run rejects a
// buffered tracer (core's lean threshold); traced runs that large stream
// their spans instead.
const leanTraceRanks = 256

// runResult is what one simulated run yields, timed from outside the
// program around each public call.
type runResult struct {
	build, setup, exec, report time.Duration // topo.Preset, NewRuntime, Execute, report encode
	total                      time.Duration
	events                     uint64
	shards                     int
	reportBytes                int
	hub                        msg.Stats
	dev                        device.Stats
	crit                       map[string]int64 // critical path by span kind (traced, at most leanTraceRanks ranks)
	digest                     [32]byte         // SHA-256 of the report JSON without the trace profile
	err                        error
}

var epClasses = map[string]apps.EPClass{
	"S": apps.EPClassS, "W": apps.EPClassW, "A": apps.EPClassA, "B": apps.EPClassB, "C": apps.EPClassC,
}

// program builds the application a spec names, with impacc-run's defaults:
// a backed EP run executes a 2^-12 sample of its pairs and prices the whole
// class.
func program(s RunSpec) (core.Program, error) {
	style := map[string]apps.Style{"sync": apps.StyleSync, "async": apps.StyleAsync, "unified": apps.StyleUnified}[s.Style]
	switch s.App {
	case "dgemm":
		return apps.DGEMM(apps.DGEMMConfig{N: s.N, Style: style, Verify: s.Verify}), nil
	case "jacobi":
		return apps.Jacobi(apps.JacobiConfig{N: s.N, Iters: s.Iters, Style: style, Verify: s.Verify}), nil
	case "jacobi2d":
		return apps.Jacobi2D(apps.Jacobi2DConfig{N: s.N, Iters: s.Iters, Style: style, Verify: s.Verify}), nil
	case "lulesh":
		return apps.LULESH(apps.LULESHConfig{Edge: s.Edge, Steps: s.Steps, Verify: s.Verify}), nil
	case "ep":
		shift := 0
		if s.Verify {
			shift = 12
		}
		return apps.EP(apps.EPConfig{Class: epClasses[s.Class], Style: style, SampleShift: shift, Verify: s.Verify}), nil
	}
	return nil, fmt.Errorf("unknown app %q", s.App)
}

// runOne executes one spec through the public entry points: topo.Preset,
// core.NewRuntime, Runtime.Execute, and the report's JSON and telemetry
// encoders. traced attaches a simulated tracer (streaming above
// leanTraceRanks ranks); spans, when non-nil, records the benchmark's own
// spans under parent.
func runOne(s RunSpec, traced bool, spans *spanLog, parent int) (res runResult) {
	t0 := time.Now()
	defer func() { res.total = time.Since(t0) }()
	root := spans.begin("run "+s.System+" "+s.App, parent)
	defer spans.end(root)

	sp := spans.begin("topo.Preset", root)
	sys, err := topo.Preset(s.System)
	spans.end(sp)
	res.build = time.Since(t0)
	if err != nil {
		res.err = err
		return res
	}
	prog, err := program(s)
	if err != nil {
		res.err = err
		return res
	}
	mode := core.IMPACC
	if s.Mode == "legacy" {
		mode = core.Legacy
	}
	cfg := core.Config{System: sys, Mode: mode, Backed: s.Verify, Seed: s.Seed, JitterPct: 1,
		Parallel: s.ParSim, Lean: s.Lean}
	streaming := traced && s.Lean && len(core.BuildMapping(sys, 0, 0)) > leanTraceRanks
	switch {
	case streaming:
		cfg.Trace = core.NewStreamTracer(core.NewStreamWriter(io.Discard))
	case traced:
		cfg.Trace = core.NewTracer()
	}

	t1 := time.Now()
	sp = spans.begin("core.NewRuntime", root)
	rt, err := core.NewRuntime(cfg)
	spans.end(sp)
	res.setup = time.Since(t1)
	if err != nil {
		res.err = err
		return res
	}

	t2 := time.Now()
	sp = spans.begin("core.Execute", root)
	rep, err := rt.Execute(prog)
	spans.end(sp)
	res.exec = time.Since(t2)
	res.events = rt.Events()
	if err != nil {
		res.err = fmt.Errorf("%s: %w", s, err)
		return res
	}
	if streaming {
		if err := cfg.Trace.CloseStream(sim.Time(rep.Elapsed)); err != nil {
			res.err = err
			return res
		}
	}

	t3 := time.Now()
	sp = spans.begin("core.Report", root)
	body := *rep
	body.Prof = nil // the profile exists only on traced runs; the digest must not see it
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err = enc.Encode(&body)
	if err == nil {
		res.digest = sha256.Sum256(buf.Bytes())
		res.reportBytes = buf.Len()
		buf.Reset()
		err = rep.Metrics.WriteJSON(&buf)
		res.reportBytes += buf.Len()
	}
	spans.end(sp)
	res.report = time.Since(t3)
	if err != nil {
		res.err = err
		return res
	}

	res.shards = rep.Run.Shards
	res.hub = rep.TotalHub()
	res.dev = rep.TotalDev()
	if rep.Prof != nil {
		res.crit = rep.Prof.CritPath.ByKindNs
	}
	return res
}

// runPass executes a run list on slots concurrent workers in a closed loop
// (each worker takes the next run when its previous one finishes) and
// returns the results in list order with the pass's wall time.
func runPass(runs []RunSpec, slots int, traced bool, spans *spanLog) ([]runResult, time.Duration) {
	out := make([]runResult, len(runs))
	next := make(chan int, len(runs)) // holds the whole run list, so filling it never blocks
	for i := range runs {
		next <- i
	}
	close(next)
	pass := spans.begin("pass", -1)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = runOne(runs[i], traced, spans, pass)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	spans.end(pass)
	return out, wall
}

// passDigest folds the per-run report digests of one pass, in list order,
// into the workload's digest.
func passDigest(res []runResult) string {
	h := sha256.New()
	for i := range res {
		h.Write(res[i].digest[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// isHalo names the torus run whose execute time is core.execute_s.halo;
// the other torus run is the Allreduce.
func isHalo(s RunSpec) bool { return strings.HasPrefix(s.App, "jacobi") }
