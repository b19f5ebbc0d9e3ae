package apps

import (
	"testing"

	"impacc/internal/core"
	"impacc/internal/topo"
)

func runApp(t *testing.T, cfg core.Config, prog core.Program) *core.Report {
	t.Helper()
	rep, err := core.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func psg(mode core.Mode, tasks int) core.Config {
	return core.Config{System: topo.PSG(), Mode: mode, Backed: true, MaxTasks: tasks, Seed: 42}
}

func TestStyleString(t *testing.T) {
	if StyleSync.String() != "sync" || StyleAsync.String() != "async" || StyleUnified.String() != "unified" {
		t.Fatal("style names wrong")
	}
}

func TestParseStyle(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Style
		ok   bool
	}{
		{"sync", StyleSync, true},
		{"async", StyleAsync, true},
		{"unified", StyleUnified, true},
		{"turbo", 0, false},
		{"", 0, false},
	} {
		got, err := ParseStyle(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseStyle(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestEPClassTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		want EPClass
		ok   bool
	}{
		{"S", EPClassS, true},
		{"W", EPClassW, true},
		{"A", EPClassA, true},
		{"B", EPClassB, true},
		{"C", EPClassC, true},
		{"D", EPClassD, true},
		{"E", EPClassE, true},
		{"64xE", EPClassT, true},
		{"T", EPClass{}, false},
		{"a", EPClass{}, false},
	} {
		got, err := ParseEPClass(tc.name)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEPClass(%q) = %v, %v", tc.name, got, err)
		}
	}
}

func TestDGEMMCorrectAllStyles(t *testing.T) {
	for _, style := range []Style{StyleSync, StyleAsync, StyleUnified} {
		t.Run(style.String(), func(t *testing.T) {
			runApp(t, psg(core.IMPACC, 4), DGEMM(DGEMMConfig{N: 64, Style: style, Verify: true}))
		})
	}
}

func TestDGEMMLegacyStyles(t *testing.T) {
	for _, style := range []Style{StyleSync, StyleAsync} {
		t.Run(style.String(), func(t *testing.T) {
			runApp(t, psg(core.Legacy, 4), DGEMM(DGEMMConfig{N: 64, Style: style, Verify: true}))
		})
	}
}

func TestDGEMMSingleTask(t *testing.T) {
	runApp(t, psg(core.IMPACC, 1), DGEMM(DGEMMConfig{N: 32, Style: StyleUnified, Verify: true}))
}

func TestDGEMMAliasesInputsUnderIMPACC(t *testing.T) {
	rep := runApp(t, psg(core.IMPACC, 4), DGEMM(DGEMMConfig{N: 64, Style: StyleUnified, Verify: true}))
	// 3 A-block sends + 3 bcast fanouts, all readonly whole-allocation
	// receives on one node: at least the bcast targets must alias.
	if got := rep.TotalHub().Aliases; got < 3 {
		t.Fatalf("aliases = %d, want >= 3 (input sharing, §4.2 DGEMM)", got)
	}
}

func TestDGEMMInternode(t *testing.T) {
	cfg := core.Config{System: topo.Beacon(2), Mode: core.IMPACC, Backed: true, Seed: 1}
	rep := runApp(t, cfg, DGEMM(DGEMMConfig{N: 64, Style: StyleUnified, Verify: true}))
	if rep.TotalHub().NetOut == 0 {
		t.Fatal("multi-node DGEMM sent no internode messages")
	}
}

func TestDGEMMRejectsIndivisible(t *testing.T) {
	if _, err := core.Run(psg(core.IMPACC, 4), DGEMM(DGEMMConfig{N: 63})); err == nil {
		t.Fatal("N not divisible by tasks must fail")
	}
}

func TestEPAcceptanceRate(t *testing.T) {
	// Class S sampled down: verify the π/4 acceptance ratio.
	runApp(t, psg(core.IMPACC, 4), EP(EPConfig{
		Class: EPClassS, Style: StyleSync, SampleShift: 10, Verify: true}))
}

func TestEPStylesAndModes(t *testing.T) {
	for _, mode := range []core.Mode{core.IMPACC, core.Legacy} {
		for _, style := range []Style{StyleSync, StyleAsync} {
			rep := runApp(t, psg(mode, 8), EP(EPConfig{
				Class: EPClassS, Style: style, SampleShift: 14}))
			if rep.TotalDev().KernelCount != 8 {
				t.Fatalf("mode %v style %v: kernels = %d", mode, style, rep.TotalDev().KernelCount)
			}
		}
	}
}

func TestEPClassScaling(t *testing.T) {
	// Kernel time must scale with class size (2^2 between A and C at equal
	// tasks).
	elapsed := func(c EPClass) float64 {
		cfg := psg(core.IMPACC, 8)
		cfg.Backed = false
		rep := runApp(t, cfg, EP(EPConfig{Class: c, Style: StyleSync}))
		return rep.Elapsed.Seconds()
	}
	a, c := elapsed(EPClassA), elapsed(EPClassC)
	ratio := c / a
	if ratio < 10 || ratio > 18 {
		t.Fatalf("class C / class A = %.1f, want ~16", ratio)
	}
}

func TestJacobiCorrectAllStyles(t *testing.T) {
	for _, style := range []Style{StyleSync, StyleAsync, StyleUnified} {
		t.Run(style.String(), func(t *testing.T) {
			runApp(t, psg(core.IMPACC, 4), Jacobi(JacobiConfig{
				N: 32, Iters: 5, Style: style, Verify: true}))
		})
	}
}

func TestJacobiLegacy(t *testing.T) {
	for _, style := range []Style{StyleSync, StyleAsync} {
		runApp(t, psg(core.Legacy, 4), Jacobi(JacobiConfig{
			N: 32, Iters: 3, Style: style, Verify: true}))
	}
}

func TestJacobiSingleTask(t *testing.T) {
	runApp(t, psg(core.IMPACC, 1), Jacobi(JacobiConfig{N: 16, Iters: 4, Style: StyleSync, Verify: true}))
}

func TestJacobiUnifiedUsesDtoD(t *testing.T) {
	rep := runApp(t, psg(core.IMPACC, 4), Jacobi(JacobiConfig{
		N: 64, Iters: 3, Style: StyleUnified}))
	if rep.TotalDev().DtoDCount == 0 {
		t.Fatal("unified Jacobi must exchange halos device-to-device (Figure 14)")
	}
	// And it must beat the sync baseline.
	repSync := runApp(t, psg(core.Legacy, 4), Jacobi(JacobiConfig{
		N: 64, Iters: 3, Style: StyleSync}))
	if rep.Elapsed >= repSync.Elapsed {
		t.Fatalf("IMPACC unified (%v) not faster than legacy sync (%v)", rep.Elapsed, repSync.Elapsed)
	}
}

func TestLULESHConservesAndMatchesSerial(t *testing.T) {
	runApp(t, psg(core.IMPACC, 8), LULESH(LULESHConfig{Edge: 6, Steps: 3, Verify: true}))
}

func TestLULESHLegacy(t *testing.T) {
	runApp(t, psg(core.Legacy, 8), LULESH(LULESHConfig{Edge: 6, Steps: 3, Verify: true}))
}

func TestLULESHSingleTask(t *testing.T) {
	runApp(t, psg(core.IMPACC, 1), LULESH(LULESHConfig{Edge: 5, Steps: 2, Verify: true}))
}

func TestLULESHRejectsNonCube(t *testing.T) {
	if _, err := core.Run(psg(core.IMPACC, 6), LULESH(LULESHConfig{Edge: 4, Steps: 1})); err == nil {
		t.Fatal("non-cube task count must fail")
	}
}

func TestLULESHMultiNode(t *testing.T) {
	cfg := core.Config{System: topo.Beacon(2), Mode: core.IMPACC, Backed: true, Seed: 3}
	// 8 tasks over 2 nodes (4 devices each) = 2^3 lattice.
	rep := runApp(t, cfg, LULESH(LULESHConfig{Edge: 6, Steps: 2, Verify: true}))
	if rep.TotalHub().NetOut == 0 {
		t.Fatal("multi-node LULESH must cross the network")
	}
}

func TestCheckClose(t *testing.T) {
	if err := checkClose("x", 1.0, 1.0+1e-13, 1e-9); err != nil {
		t.Fatal("tight match rejected")
	}
	if err := checkClose("x", 1.0, 2.0, 1e-9); err == nil {
		t.Fatal("mismatch accepted")
	}
	if err := checkClose("x", 0.5, -0.5, 0.1); err == nil {
		t.Fatal("sign flip accepted")
	}
}

func TestCubeRoot(t *testing.T) {
	cases := map[int]int{1: 1, 8: 2, 27: 3, 64: 4, 125: 5, 1000: 10, 6: 0, 2: 0}
	for n, want := range cases {
		if got := cubeRoot(n); got != want {
			t.Errorf("cubeRoot(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestEPClassPairs(t *testing.T) {
	if EPClassA.Pairs() != 1<<28 {
		t.Fatalf("class A pairs = %g", EPClassA.Pairs())
	}
	if EPClassT.Pairs() != 64*EPClassE.Pairs() {
		t.Fatal("Titan class must be 64x class E")
	}
}

func TestJacobi2DCorrectBothStyles(t *testing.T) {
	// 8 PSG tasks -> 2x4 grid.
	for _, style := range []Style{StyleSync, StyleUnified} {
		t.Run(style.String(), func(t *testing.T) {
			runApp(t, psg(core.IMPACC, 8), Jacobi2D(Jacobi2DConfig{
				N: 32, Iters: 4, Style: style, Verify: true}))
		})
	}
}

func TestJacobi2DLegacy(t *testing.T) {
	runApp(t, psg(core.Legacy, 4), Jacobi2D(Jacobi2DConfig{
		N: 32, Iters: 3, Style: StyleSync, Verify: true}))
}

func TestJacobi2DSingleTask(t *testing.T) {
	runApp(t, psg(core.IMPACC, 1), Jacobi2D(Jacobi2DConfig{
		N: 16, Iters: 3, Style: StyleSync, Verify: true}))
}

func TestJacobi2DMultiNode(t *testing.T) {
	cfg := core.Config{System: topo.Beacon(2), Mode: core.IMPACC, Backed: true, Seed: 9}
	rep := runApp(t, cfg, Jacobi2D(Jacobi2DConfig{
		N: 32, Iters: 3, Style: StyleUnified, Verify: true}))
	if rep.TotalHub().NetOut == 0 {
		t.Fatal("2x4-node grid must exchange across the network")
	}
}

func TestGridShape(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 4: {2, 2}, 8: {2, 4}, 6: {2, 3}, 9: {3, 3}, 12: {3, 4}, 7: {1, 7}}
	for n, want := range cases {
		pr, pc := gridShape(n)
		if pr != want[0] || pc != want[1] {
			t.Errorf("gridShape(%d) = %dx%d, want %dx%d", n, pr, pc, want[0], want[1])
		}
	}
}

func TestJacobi2DLessCommThan1D(t *testing.T) {
	// 2-D partitioning moves O(2N/sqrt(P)) halo data per task instead of
	// O(2N): with enough tasks the 2-D variant must communicate less.
	cfg := psg(core.IMPACC, 8)
	cfg.Backed = false
	rep1, err := core.Run(cfg, Jacobi(JacobiConfig{N: 2048, Iters: 10, Style: StyleUnified}))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := core.Run(cfg, Jacobi2D(Jacobi2DConfig{N: 2048, Iters: 10, Style: StyleUnified}))
	if err != nil {
		t.Fatal(err)
	}
	b1 := rep1.TotalDev().DtoDBytes
	b2 := rep2.TotalDev().DtoDBytes
	if b2 >= b1 {
		t.Fatalf("2-D halo bytes (%d) not below 1-D (%d)", b2, b1)
	}
}

func TestAppsDeterministic(t *testing.T) {
	// Same seed -> bit-identical virtual elapsed time for every app.
	progs := map[string]core.Program{
		"dgemm":    DGEMM(DGEMMConfig{N: 256, Style: StyleUnified}),
		"ep":       EP(EPConfig{Class: EPClassA, Style: StyleAsync}),
		"jacobi":   Jacobi(JacobiConfig{N: 256, Iters: 5, Style: StyleUnified}),
		"jacobi2d": Jacobi2D(Jacobi2DConfig{N: 256, Iters: 5, Style: StyleUnified}),
		"lulesh":   LULESH(LULESHConfig{Edge: 8, Steps: 2}),
	}
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			run := func() string {
				cfg := psg(core.IMPACC, 8)
				cfg.Backed = false
				cfg.JitterPct = 1.5
				cfg.Seed = 777
				rep := runApp(t, cfg, prog)
				return rep.Elapsed.String()
			}
			if a, b := run(), run(); a != b {
				t.Fatalf("%s diverged: %s vs %s", name, a, b)
			}
		})
	}
}
