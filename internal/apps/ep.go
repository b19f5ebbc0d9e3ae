package apps

import (
	"fmt"
	"math"

	"impacc/internal/core"
	"impacc/internal/device"
	"impacc/internal/mpi"
)

// EPClass is a NAS EP problem class: the benchmark generates 2^(M+1)
// uniform pseudo-random pairs, accepts those inside the unit circle via the
// Marsaglia polar method, and histograms the resulting Gaussian deviates
// into ten annuli (NPB, paper §4.2).
type EPClass struct {
	Name string
	M    int // log2 of pair count minus 1
}

// NAS problem classes, plus the paper's Titan class ("64 times bigger than
// the NPB's biggest class").
var (
	EPClassS = EPClass{"S", 23}
	EPClassW = EPClass{"W", 25}
	EPClassA = EPClass{"A", 27}
	EPClassB = EPClass{"B", 29}
	EPClassC = EPClass{"C", 31}
	EPClassD = EPClass{"D", 35}
	EPClassE = EPClass{"E", 39}
	EPClassT = EPClass{"64xE", 45} // Titan class
)

// ParseEPClass returns the class with the given name (S W A B C D E 64xE).
func ParseEPClass(name string) (EPClass, error) {
	for _, c := range []EPClass{EPClassS, EPClassW, EPClassA, EPClassB, EPClassC, EPClassD, EPClassE, EPClassT} {
		if c.Name == name {
			return c, nil
		}
	}
	return EPClass{}, fmt.Errorf("unknown EP class %q", name)
}

// Pairs returns the total number of random pairs.
func (c EPClass) Pairs() float64 { return math.Pow(2, float64(c.M+1)) }

// EPConfig parameterizes the EP run.
type EPConfig struct {
	Class EPClass
	Style Style
	// SampleShift reduces the pairs actually *executed* per task to
	// 2^(M+1-SampleShift) while pricing the kernel at full scale; 0 runs
	// everything (only sensible for tiny classes in tests).
	SampleShift int
	Verify      bool
}

// epFlopsPerPair approximates the NPB EP cost: two uniforms, the polar
// test, a log/sqrt on acceptance.
const epFlopsPerPair = 28

// EP returns the benchmark program. EP "requires no communication between
// tasks except for the final reduction, and the kernel execution time
// dominates" — IMPACC and MPI+OpenACC are expected to tie.
func EP(cfg EPConfig) core.Program {
	return func(t *core.Task) {
		total := cfg.Class.Pairs()
		perTask := total / float64(t.Size())

		// counts[0..9]: annuli; counts[10], counts[11]: sum of X, sum of Y.
		local := t.Malloc(12 * 8)
		global := t.Malloc(12 * 8)
		lv := t.Floats(local, 12)

		exec := 0.0
		if lv != nil {
			exec = perTask / math.Pow(2, float64(cfg.SampleShift))
		}
		spec := device.KernelSpec{
			Name:  "ep",
			FLOPs: perTask * epFlopsPerPair,
			Kind:  device.KindCompute,
			Gangs: 1 << 10, Workers: 8, Vector: 128,
			Body: func() { epBody(t, lv, int64(exec)) },
		}
		switch cfg.Style {
		case StyleSync:
			t.Kernels(spec, -1)
		default:
			t.Kernels(spec, 1)
			t.ACCWait(1)
		}
		t.Allreduce(local, global, 12, mpi.Float64, mpi.Sum)

		if cfg.Verify && lv != nil {
			gv := t.Floats(global, 12)
			var accepted float64
			for i := 0; i < 10; i++ {
				accepted += gv[i]
			}
			// Polar-method acceptance rate is π/4; with 10 annuli of the
			// Gaussian radius, virtually all accepted pairs land in them.
			wantPairs := exec * float64(t.Size())
			if err := checkClose("ep acceptance", accepted/wantPairs, math.Pi/4, 0.05); err != nil {
				t.Fail(err)
			}
		}
	}
}

// epBody generates pairs for real on the backed run.
func epBody(t *core.Task, counts []float64, pairs int64) {
	if counts == nil {
		return
	}
	r := t.RNG().Fork()
	for i := int64(0); i < pairs; i++ {
		x := 2*r.Float64() - 1
		y := 2*r.Float64() - 1
		s := x*x + y*y
		if s > 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		gx, gy := x*f, y*f
		m := math.Max(math.Abs(gx), math.Abs(gy))
		bin := int(m)
		if bin > 9 {
			bin = 9
		}
		counts[bin]++
		counts[10] += gx
		counts[11] += gy
	}
}
