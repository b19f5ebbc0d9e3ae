// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time from a single process, checks that every
// output is correct, and prints a human-readable report followed by one
// JSON line with the metrics BENCHMARK.json declares.
//
//	perfbench --workload sweep-paper --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	sweep-paper  closed loop on min(2, nproc) pool slots: a seeded list of
//	             small runs over the Table-1 systems, repeated until time
//	             is up
//	torus-4096   closed loop: a 4096-rank Jacobi halo exchange and a
//	             4096-rank EP Allreduce on gemini:16,16,16, lean, sharded
//	             engine on min(2, nproc) workers
//	serve-zipf   open loop: Poisson arrivals with Zipf popularity against
//	             an in-process impacc-serve over loopback HTTP
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// spends a third of the time untraced and the rest traced: the traced phase
// records the benchmark's spans around every public call, sets the
// simulated tracer and takes a CPU profile; it prints the per-layer metrics
// beside the untraced end-to-end ones. See NOTES.md for every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// missedMs stands in for the latency of a failed or refused operation: it
// misses any latency limit.
const missedMs = 1e12

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "sweep-paper, torus-4096 or serve-zipf")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same run list, catalogue and schedule")
		seconds  = fs.Int("seconds", 20, "measurement time")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	nproc := runtime.NumCPU()
	par := min(2, nproc) // pool slots, -par-sim workers, serve workers and client connections
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d go=%s ram_mb=%d par=%d\n",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), totalRAM()>>20, par)
	fmt.Fprintf(stdout, "workload: %s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)

	budget := time.Duration(*seconds) * time.Second
	var (
		out *outcome
		err error
	)
	switch *workload {
	case "sweep-paper":
		out, err = runBatch(sweepRuns(*seed), par, budget, *trace == 1)
	case "torus-4096":
		out, err = runBatch(torusRuns(*seed, par), 1, budget, *trace == 1)
	case "serve-zipf":
		out, err = runServeWorkload(*seed, par, budget, *trace == 1)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (sweep-paper, torus-4096, serve-zipf)\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if out.spans != nil {
		if err := writeSpans(out.spans, *workload, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	for _, e := range out.errs {
		fmt.Fprintf(stdout, "error: %v\n", e)
	}
	out.print(stdout, *trace == 1)
	line, err := out.resultJSON(*trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one named measurement; base names what a ratio was computed
// from, so every ratio prints next to its base.
type metric struct {
	name  string
	value float64
	unit  string
	base  string
}

// outcome is one workload run's result.
type outcome struct {
	attempted, failed int
	errs              []error // the first few failures, for the report
	digest            string  // report digest of one pass; identical runs give identical digests
	note              string  // sample counts behind the end-to-end percentiles
	e2e, layer        []metric
	spans             *spanLog
}

func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err)
	}
}

func (o *outcome) addE2E(name string, v float64, unit string) {
	o.e2e = append(o.e2e, metric{name: name, value: v, unit: unit})
}

func (o *outcome) addLayer(name string, v float64, base string) {
	o.layer = append(o.layer, metric{name: name, value: v, unit: unitOf(name), base: base})
}

// endToEndNames are the end-to-end metrics BENCHMARK.json declares. The
// report also prints job_p99_ms among them, but BENCHMARK.json lists it
// per layer, without a bound: on serve-zipf its run-to-run spread on a
// shared 2-core host (30-40% of its median) is wider than any bound the
// benchmark contract allows.
var endToEndNames = []string{"setup_s", "wall_s", "peak_heap_mb", "hit_p50_ms", "miss_p50_ms"}

// batchLayerNames and serveLayerNames are per-layer metrics only one kind
// of workload exercises; the other reports them as 0.
var (
	batchLayerNames = []string{
		"topo.build_s", "core.setup_s", "core.execute_s", "core.execute_s.halo", "core.execute_s.allreduce",
		"core.report_s", "core.report_mb", "sim.events", "sim.events_per_s", "sim.shards",
		"msg.intra", "msg.net", "msg.fused", "msg.aliases", "msg.rdma_direct", "msg.staged", "msg.legacy_copies",
		"device.copies", "device.copy_mb", "device.kernels",
	}
	serveLayerNames = []string{
		"serve.queue_ms", "serve.run_ms", "serve.render_ms", "serve.submitted", "serve.hit_ratio",
		"serve.coalesced", "serve.evictions", "serve.rejected", "gen.lag_p99_ms",
	}
)

// layerNames lists every per-layer metric BENCHMARK.json declares.
func layerNames() []string {
	names := append([]string{"job_p99_ms"}, batchLayerNames...)
	names = append(names, serveLayerNames...)
	names = append(names, "go.alloc_mb", "go.gc_cycles", "go.gc_cpu_frac", "go.cpu_s",
		"trace.wall_s", "trace.untraced_wall_s", "trace_overhead_frac", "host_self.cpu_s")
	for _, m := range selfModules {
		names = append(names, "host_self_frac."+m)
	}
	names = append(names, "prof.crit_path_ms")
	for _, k := range critKinds {
		names = append(names, "prof.crit_frac."+k)
	}
	return names
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case name == "sim.events_per_s":
		return "1/s"
	case strings.HasSuffix(name, "_s") || strings.HasPrefix(name, "core.execute_s."):
		return "s"
	case strings.Contains(name, "frac") || strings.HasSuffix(name, "_ratio"):
		return "ratio"
	}
	return "count"
}

// notExercised reports names as 0 on a workload that does not reach them.
func (o *outcome) notExercised(names []string, why string) {
	for _, n := range names {
		o.addLayer(n, 0, why)
	}
}

// resultJSON renders the final line: every declared metric of the mode,
// zero where the workload does not exercise it.
func (o *outcome) resultJSON(traced bool) ([]byte, error) {
	names, have := endToEndNames, o.e2e
	if traced {
		names, have = layerNames(), o.layer
	}
	byName := map[string]metric{}
	for _, m := range have {
		byName[m.name] = m
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		v := m.value
		if math.IsInf(v, 1) || math.IsNaN(v) {
			v = missedMs
		}
		ms[n] = val{v, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, ms})
}

// print writes the human-readable report: the correctness verdict, the
// digest, the end-to-end metrics and, on a traced run, the per-layer
// metrics beside them with each ratio's base.
func (o *outcome) print(w io.Writer, traced bool) {
	errFrac := 0.0
	if o.attempted > 0 {
		errFrac = float64(o.failed) / float64(o.attempted)
	}
	verdict := "correct"
	if o.failed > 0 || o.attempted == 0 {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "verdict: %s  error_frac=%.4g ratio (%d failed / %d attempted)\n", verdict, errFrac, o.failed, o.attempted)
	fmt.Fprintf(w, "digest: %s\n", o.digest)
	fmt.Fprintf(w, "samples: %s\n", o.note)
	section := func(title string, ms []metric) {
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s", m.name, m.value, m.unit)
			if m.base != "" {
				fmt.Fprintf(w, "  (%s)", m.base)
			}
			fmt.Fprintln(w)
		}
	}
	if traced {
		section("end-to-end (untraced phase)", o.e2e)
		section("per-layer (traced phase)", o.layer)
	} else {
		section("end-to-end", o.e2e)
	}
}

// writeSpans stores the traced run's spans under .bench_build in the
// working directory, beside the benchmark's build output.
func writeSpans(spans *spanLog, workload string, seed uint64) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := spans.writeJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed)), buf.Bytes(), 0o644)
}

// profiler wraps runtime/pprof's CPU profile into memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and adds host_self.cpu_s and host_self_frac.* to o.
func (p *profiler) stop(o *outcome) error {
	pprof.StopCPUProfile()
	fracs, cpu, err := foldProfile(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("host profile: %w", err)
	}
	o.addLayer("host_self.cpu_s", cpu, "CPU time sampled in the traced phase")
	for _, m := range selfModules {
		o.addLayer("host_self_frac."+m, fracs[m], "of host_self.cpu_s")
	}
	return nil
}

// abort ends the profile without using it.
func (p *profiler) abort() { pprof.StopCPUProfile() }

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
