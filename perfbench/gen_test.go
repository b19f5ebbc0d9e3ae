package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGeneratorsDeterministic checks that a seed fixes the run lists, the
// catalogue and the arrival schedule byte for byte, and that another seed
// changes them.
func TestGeneratorsDeterministic(t *testing.T) {
	gen := func(seed uint64) []string {
		return []string{
			mustJSON(t, sweepRuns(seed)),
			mustJSON(t, torusRuns(seed, 2)),
			mustJSON(t, catalogue(seed)),
			mustJSON(t, arrivals(seed, serveRate, 5*time.Second, 240, serveZipfS)),
		}
	}
	a, b, c := gen(7), gen(7), gen(8)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("generator %d: same seed gave different output", i)
		}
		if a[i] == c[i] {
			t.Errorf("generator %d: seeds 7 and 8 gave the same output", i)
		}
	}
}

// TestRunListMixIsFixed checks that the seed changes which runs a list
// holds but not its mix of applications, modes and verify runs.
func TestRunListMixIsFixed(t *testing.T) {
	mix := func(seed uint64) map[string]int {
		m := map[string]int{}
		for _, s := range sweepRuns(seed) {
			m["app="+s.App]++
			m["mode="+s.Mode+"/"+s.Style]++
			if s.Verify {
				m["verify"]++
			}
		}
		return m
	}
	a, b := mix(1), mix(2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("run-list mix differs between seeds:\n%v\n%v", a, b)
	}
	if n := len(sweepRuns(1)); a["verify"]*4 != n {
		t.Errorf("verify runs = %d, want a quarter of %d", a["verify"], n)
	}
}

// TestSpecsAreRunnable checks every drawn run's size divides over its
// ranks, LULESH runs get a cube, and legacy runs avoid the unified style.
func TestSpecsAreRunnable(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		for _, s := range append(sweepRuns(seed), catalogue(seed)...) {
			p := ranksOf(s.System)
			switch s.App {
			case "dgemm", "jacobi", "jacobi2d":
				if s.N%p != 0 {
					t.Errorf("%v: N not divisible by %d ranks", s, p)
				}
			case "lulesh":
				c := int(math.Round(math.Cbrt(float64(p))))
				if c*c*c != p {
					t.Errorf("%v: %d ranks is not a cube", s, p)
				}
			}
			if s.Mode == "legacy" && s.Style == "unified" {
				t.Errorf("%v: unified style needs IMPACC", s)
			}
			if _, err := program(s); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestArrivalsShape(t *testing.T) {
	sched := arrivals(3, 100, 10*time.Second, 50, 1.1)
	if n := len(sched); n < 900 || n > 1100 {
		t.Errorf("%d arrivals in 10 s at 100/s", n)
	}
	count := make([]int, 50)
	for i, a := range sched {
		if i > 0 && a.Due < sched[i-1].Due {
			t.Fatalf("arrival %d is out of order", i)
		}
		count[a.Job]++
	}
	if count[0] <= count[49] {
		t.Errorf("entry 0 drew %d, entry 49 drew %d: popularity is not Zipf-ordered", count[0], count[49])
	}
}

// TestSupportedPercentile checks the reporting rule: the highest
// percentile with at least 10 samples beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(append(xs, math.Inf(1)), 100); !math.IsInf(got, 1) {
		t.Errorf("a failed sample must sort last, got %g", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"impacc/internal/sim.(*Engine).Run":    "sim",
		"impacc/internal/core.NewRuntime":      "core",
		"impacc/internal/mpi.Reduce":           "other",
		"encoding/json.(*encodeState).marshal": "json",
		"runtime.mallocgc":                     "runtime",
		"net/http.(*conn).serve":               "other",
		"main.runOne":                          "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldProfile decodes a real CPU profile of this process and checks
// that the module shares sum to 1.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	fracs, cpu, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err, x)
	}
	sum := 0.0
	for _, f := range fracs {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 || cpu <= 0 {
		t.Errorf("shares sum to %g over %g CPU s", sum, cpu)
	}
}
