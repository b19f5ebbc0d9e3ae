package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"impacc/internal/apps"
	"impacc/internal/core"
	"impacc/internal/mpi"
	"impacc/internal/topo"
)

// TestGeminiScaleLean is the generated-topology acceptance run: a
// 1024-node gemini (Titan-like 3D torus) Jacobi solve in lean mode
// completes inside ordinary test timeouts with a bounded per-rank memory
// envelope, and its report and telemetry are byte-identical at -par-sim 1
// and 8 — the same determinism contract the small presets carry, held at
// three orders of magnitude more nodes. The measured events/sec and
// bytes/rank feed BENCH_topo.json.
func TestGeminiScaleLean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 1024-node simulation twice")
	}
	sys, err := topo.Preset("gemini:16,8,8")
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Nodes) != 1024 {
		t.Fatalf("gemini:16,8,8 generated %d nodes, want 1024", len(sys.Nodes))
	}
	ranks := len(sys.Nodes) // one GPU per generated node
	run := func(workers int) (report, metrics []byte, events uint64, wall time.Duration) {
		cfg := core.Config{System: sys, Lean: true, Seed: 2016, JitterPct: 1, Parallel: workers}
		// Scalable workload: one mesh row per rank, two sweeps.
		prog := apps.Jacobi(apps.JacobiConfig{N: ranks, Iters: 2, Style: apps.StyleUnified})
		rt, err := core.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		rep, err := rt.Execute(prog)
		wall = time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		rep.Run.Hash = "" // pinned elsewhere; keep the diff signal on content
		report, err = json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := rep.Metrics.WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		return report, snap.Bytes(), rt.Events(), wall
	}

	rep1, met1, ev1, wall1 := run(1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bytesPerRank := ms.HeapAlloc / uint64(ranks)
	rep8, met8, ev8, _ := run(8)

	if !bytes.Equal(rep1, rep8) {
		t.Errorf("par-sim 8 report differs from serial (%d vs %d bytes)", len(rep8), len(rep1))
	}
	if !bytes.Equal(met1, met8) {
		t.Errorf("par-sim 8 metrics differ from serial (%d vs %d bytes)", len(met8), len(met1))
	}
	if ev1 != ev8 {
		t.Errorf("event counts diverge: serial %d, par-sim 8 %d", ev1, ev8)
	}
	// The lean envelope: the post-run heap must stay within a generous
	// fixed per-rank budget (catching any O(ranks^2) or per-rank-buffered
	// regression immediately).
	const maxBytesPerRank = 1 << 20
	if bytesPerRank > maxBytesPerRank {
		t.Errorf("heap after serial run = %d bytes/rank, budget %d", bytesPerRank, maxBytesPerRank)
	}
	t.Logf("gemini:16,8,8 lean: %d events in %v serial (%.0f events/sec), heap %d bytes/rank",
		ev1, wall1, float64(ev1)/wall1.Seconds(), bytesPerRank)
}

// TestGeminiCollectiveScaling guards the collective path's scaling shape:
// a lean 1-element Allreduce (Reduce tree plus two-level Bcast) must cost
// O(1) host memory per rank, so the allocation per rank may not grow in
// step with the rank count — at 4x the ranks it must stay under 2x. Any
// O(ranks) work per member and call (an O(ranks²) run) breaks that bound.
// Serial and -par-sim 8 reports must also stay byte-identical on this
// path, which the Jacobi runs above never enter.
func TestGeminiCollectiveScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 512- and 2048-node simulations")
	}
	prog := func(tk *core.Task) {
		in, out := tk.Malloc(8), tk.Malloc(8)
		tk.Allreduce(in, out, 1, mpi.Float64, mpi.Sum)
	}
	run := func(sysName string, workers int) (report []byte, ranks int, allocPerRank float64) {
		sys, err := topo.Preset(sysName)
		if err != nil {
			t.Fatal(err)
		}
		ranks = len(sys.Nodes)
		cfg := core.Config{System: sys, Lean: true, Seed: 2016, JitterPct: 1, Parallel: workers}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rt, err := core.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Execute(prog)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		rep.Run.Hash = ""
		report, err = json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := rep.Metrics.WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		report = append(report, snap.Bytes()...)
		return report, ranks, float64(after.TotalAlloc-before.TotalAlloc) / float64(ranks)
	}

	_, small, smallAlloc := run("gemini:8,8,8", 1)
	rep1, large, largeAlloc := run("gemini:16,16,8", 1)
	rep8, _, _ := run("gemini:16,16,8", 8)
	if small != 512 || large != 2048 {
		t.Fatalf("generated %d and %d ranks, want 512 and 2048", small, large)
	}
	if !bytes.Equal(rep1, rep8) {
		t.Errorf("par-sim 8 Allreduce report differs from serial (%d vs %d bytes)", len(rep8), len(rep1))
	}
	growth := largeAlloc / smallAlloc
	if growth >= 2 {
		t.Errorf("allocation per rank grew %.2fx (%.0f -> %.0f bytes) for 4x the ranks, want < 2x",
			growth, smallAlloc, largeAlloc)
	}
	t.Logf("Allreduce alloc/rank: %d ranks %.0f B, %d ranks %.0f B (%.2fx)",
		small, smallAlloc, large, largeAlloc, growth)
}

// TestGemini4096Measure regenerates the BENCH_topo.json 4096-node row.
// Too slow for every CI run, so it only executes when IMPACC_SCALE_4096 is
// set; the recorded numbers live in BENCH_topo.json.
func TestGemini4096Measure(t *testing.T) {
	if os.Getenv("IMPACC_SCALE_4096") == "" {
		t.Skip("set IMPACC_SCALE_4096=1 to run the 4096-node measurement")
	}
	sys, err := topo.Preset("gemini:16,16,16")
	if err != nil {
		t.Fatal(err)
	}
	ranks := len(sys.Nodes)
	cfg := core.Config{System: sys, Lean: true, Seed: 2016, JitterPct: 1}
	prog := apps.Jacobi(apps.JacobiConfig{N: ranks, Iters: 2, Style: apps.StyleUnified})
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := rt.Execute(prog); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("gemini:16,16,16 lean: %d events in %v serial (%.0f events/sec), heap %d bytes/rank",
		rt.Events(), wall, float64(rt.Events())/wall.Seconds(), ms.HeapAlloc/uint64(ranks))
}
