package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// RunSpec is one simulated run of a batch workload, or one catalogue entry
// of the serve workload. Field names and defaults follow impacc-run's flags
// and serve's JobSpec, so a spec maps onto either surface unchanged.
type RunSpec struct {
	System string `json:"system"`
	App    string `json:"app"` // dgemm, ep, jacobi, jacobi2d, lulesh
	Mode   string `json:"mode"`
	Style  string `json:"style"`
	N      int    `json:"n,omitempty"`
	Iters  int    `json:"iters,omitempty"`
	Class  string `json:"class,omitempty"`
	Edge   int    `json:"edge,omitempty"`
	Steps  int    `json:"steps,omitempty"`
	Verify bool   `json:"verify,omitempty"`
	Seed   uint64 `json:"seed"`
	// Lean and ParSim are set only on the torus runs.
	Lean   bool `json:"lean,omitempty"`
	ParSim int  `json:"par_sim,omitempty"`
}

func (r RunSpec) String() string {
	return fmt.Sprintf("%s/%s/%s/%s n=%d it=%d class=%s edge=%d steps=%d verify=%t",
		r.System, r.App, r.Mode, r.Style, r.N, r.Iters, r.Class, r.Edge, r.Steps, r.Verify)
}

// newRNG derives an independent deterministic stream for one generator, so
// adding draws to one generator never shifts another's output.
func newRNG(seed uint64, stream string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// ranksOf is the task count of a Table-1 system selector: one task per
// accelerator (PSG 8 GPUs, Beacon 4 Xeon Phis per node, Titan 1 GPU per node).
func ranksOf(system string) int {
	var n int
	switch {
	case system == "psg":
		return 8
	case sscan(system, "beacon:%d", &n):
		return 4 * n
	case sscan(system, "titan:%d", &n):
		return n
	}
	panic("ranksOf: unknown system " + system)
}

func sscan(s, format string, n *int) bool {
	k, err := fmt.Sscanf(s, format, n)
	return err == nil && k == 1
}

// balanced returns n choices out of k in seeded random order, each choice
// appearing n/k or n/k+1 times.
func balanced(r *rand.Rand, n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % k
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// stratified returns n integers in [lo, hi], one drawn from each of n
// equal strata of the range, in seeded random order.
func stratified(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	width := float64(hi-lo+1) / float64(n)
	for i := range out {
		out[i] = lo + int((float64(i)+r.Float64())*width)
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// drawSpecs draws reps runs for every cell of the Table-1 design: each
// application x runtime mode and style x system family, four times, the
// fourth verifying its results against the serial references. Within each
// (application, family, verify) group the seed draws node counts and
// problem sizes from balanced strata, so every seed's list holds the same
// mix of work and only the pairing of sizes to cells changes. The list's
// order of cells is fixed, so run i is the same kind of run under every
// seed. Verify runs compute real data, so they draw from smaller sizes.
// The serve catalogue (serving) leaves out jacobi2d, which serve's job API
// lacks.
func drawSpecs(r *rand.Rand, serving bool, reps int) []RunSpec {
	appNames := []string{"dgemm", "ep", "jacobi", "lulesh", "jacobi2d"}
	if serving {
		appNames = appNames[:4]
	}
	modeStyles := [][2]string{{"impacc", "sync"}, {"impacc", "async"}, {"impacc", "unified"}, {"legacy", "sync"}, {"legacy", "async"}}
	families := []string{"psg", "beacon", "titan"}
	var out []RunSpec
	for _, app := range appNames {
		for _, fam := range families {
			for _, verify := range []bool{false, true} {
				n := 3 * reps
				if verify {
					n = reps
				}
				out = append(out, drawGroup(r, app, fam, verify, modeStyles, n)...)
			}
		}
	}
	order := rand.New(rand.NewPCG(0, 0)) // the same permutation for every seed
	order.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// drawGroup draws reps runs per mode and style for one application, system
// family and verify setting.
func drawGroup(r *rand.Rand, app, fam string, verify bool, modeStyles [][2]string, reps int) []RunSpec {
	n := reps * len(modeStyles)
	sizes := []int{512, 1024, 2048, 4096}
	edges := []int{8, 12, 16, 24}
	// LULESH needs a perfect-cube task count.
	cubes := []string{"titan:8", "titan:27", "titan:64"}
	maxBeacon, maxTitan := 8, 64
	if verify {
		// Every rank checks against a serial reference of the whole
		// problem, so verify runs stay at 16 ranks or fewer. Their backed
		// data dominates the sweep's heap; one size keeps its peak from
		// hinging on which rank count a seed pairs with the largest size.
		sizes, edges, cubes = []int{256}, []int{6, 8, 10}, []string{"titan:8"}
		maxBeacon, maxTitan = 4, 16
	}
	beacon, titan, cube := stratified(r, n, 2, maxBeacon), stratified(r, n, 2, maxTitan), balanced(r, n, len(cubes))
	size, iters, edge, steps := balanced(r, n, len(sizes)), stratified(r, n, 2, 10), balanced(r, n, len(edges)), stratified(r, n, 2, 6)
	class := balanced(r, n, 4)
	out := make([]RunSpec, n)
	for i := range out {
		ms := modeStyles[i%len(modeStyles)]
		s := RunSpec{App: app, Mode: ms[0], Style: ms[1], Verify: verify, Seed: r.Uint64N(1 << 32)}
		switch {
		case fam == "psg":
			s.System = "psg"
		case fam == "beacon" && app == "lulesh":
			s.System = "beacon:2"
		case fam == "beacon":
			s.System = fmt.Sprintf("beacon:%d", beacon[i])
		case app == "lulesh":
			s.System = cubes[cube[i]]
		default:
			s.System = fmt.Sprintf("titan:%d", titan[i])
		}
		p := ranksOf(s.System)
		switch app {
		case "dgemm", "jacobi", "jacobi2d":
			// Smallest multiple of the rank count at or above the drawn size.
			s.N = (sizes[size[i]] + p - 1) / p * p
			if app != "dgemm" {
				s.Iters = iters[i]
			}
		case "ep":
			s.Class = []string{"S", "W", "A", "B"}[class[i]]
		case "lulesh":
			s.Edge, s.Steps = edges[edge[i]], steps[i]
		}
		out[i] = s
	}
	return out
}

// sweepRuns is the sweep-paper run list: one run per cell of the design,
// 300 runs in all. Every pass runs the same list, so the first pass's runs
// are new to the process and later passes repeat them.
func sweepRuns(seed uint64) []RunSpec {
	return drawSpecs(newRNG(seed, "sweep-paper"), false, 1)
}

// torusRuns is the torus-4096 run list: a 4096-rank RDMA halo exchange and a
// 4096-rank Allreduce on a 16x16x16 Gemini torus, lean, with par workers
// driving the sharded engine. Only the simulation seed varies with seed.
func torusRuns(seed uint64, par int) []RunSpec {
	r := newRNG(seed, "torus-4096")
	sys := "gemini:16,16,16"
	return []RunSpec{
		{System: sys, App: "jacobi", Mode: "impacc", Style: "unified", N: 4096, Iters: 4,
			Seed: r.Uint64N(1 << 32), Lean: true, ParSim: par},
		{System: sys, App: "ep", Mode: "impacc", Style: "unified", Class: "C",
			Seed: r.Uint64N(1 << 32), Lean: true, ParSim: par},
	}
}

// catalogue is the serve-zipf job catalogue: two jobs per cell of the
// serving design (480 jobs), in popularity order (entry 0 is the most
// requested).
func catalogue(seed uint64) []RunSpec {
	return drawSpecs(newRNG(seed, "serve-catalogue"), true, 2)
}

// Arrival is one scheduled job submission of the open-loop generator.
type Arrival struct {
	Due time.Duration // offset from the start of the schedule
	Job int           // catalogue index
}

// arrivals draws a Poisson arrival schedule at rate per second over span,
// each arrival picking a catalogue entry with Zipf(s) popularity.
func arrivals(seed uint64, rate float64, span time.Duration, entries int, s float64) []Arrival {
	r := newRNG(seed, "serve-arrivals")
	cdf := make([]float64, entries)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	var out []Arrival
	var t float64
	for {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			return out
		}
		u := r.Float64() * sum
		lo, hi := 0, entries-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out = append(out, Arrival{Due: due, Job: lo})
	}
}
