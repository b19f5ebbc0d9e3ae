// Package serve turns the deterministic simulator into a job service:
// clients submit (topology, application, mode, seed, chaos) descriptions
// over HTTP/JSON, a bounded worker pool executes them, and a
// content-addressed cache returns byte-identical artifacts for repeated
// submissions without re-running anything.
//
// The cache is sound because runs are deterministic: the canonical encoding
// of a core.Config plus the program identity fully determines every output
// byte (report, profile, trace), so the SHA-256 of that encoding is a
// content address for the results. See DESIGN.md §11.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"

	"impacc/internal/apps"
	"impacc/internal/core"
	"impacc/internal/fault"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// JobSpec is the wire form of one simulation request. Fields mirror
// impacc-run's flags; zero values take the same defaults the CLI applies,
// and the defaults are resolved before hashing so "iters omitted" and
// "iters: 10" are the same job.
type JobSpec struct {
	System  string `json:"system"`            // preset selector: psg, beacon:N, titan:N, hetero, fattree:k, dragonfly:g,a,p, gemini:X,Y,Z
	App     string `json:"app"`               // dgemm, ep, jacobi, lulesh
	Mode    string `json:"mode,omitempty"`    // impacc (default) or legacy
	Style   string `json:"style,omitempty"`   // sync, async, unified (default by mode)
	Tasks   int    `json:"tasks,omitempty"`   // cap task count (0 = one per accelerator)
	Devices string `json:"devices,omitempty"` // device class selection, e.g. "nvidia|xeonphi"
	N       int    `json:"n,omitempty"`       // dgemm/jacobi problem size (default 1024)
	Iters   int    `json:"iters,omitempty"`   // jacobi iterations (default 10)
	Class   string `json:"class,omitempty"`   // EP class (default A)
	Edge    int    `json:"edge,omitempty"`    // lulesh per-task mesh edge (default 16)
	Steps   int    `json:"steps,omitempty"`   // lulesh steps (default 5)
	Backed  bool   `json:"backed,omitempty"`  // attach real storage
	Verify  bool   `json:"verify,omitempty"`  // verify against serial references (forces backed)
	Seed    uint64 `json:"seed,omitempty"`    // 0 = 2016, the paper's year
	Chaos   string `json:"chaos,omitempty"`   // deterministic fault spec, seed:rule,...
	// ParSim is the intra-run simulation worker count (impacc-run -par-sim).
	// It only changes wall-clock speed — every worker count produces
	// byte-identical artifacts — so it is deliberately NOT part of the job's
	// content address: serial and parallel submissions of the same job
	// coalesce onto one cache entry. compile clamps it to
	// [1, GOMAXPROCS]: a client cannot ask for more workers than the host
	// runs at once.
	ParSim int `json:"par_sim,omitempty"`
	// Lean turns on the memory-lean big-run mode (impacc-run -lean): above
	// 256 ranks per-rank telemetry and heartbeats aggregate. Lean changes
	// what a big run reports, so unlike ParSim it IS part of the content
	// address (a lean and a non-lean submission are different jobs).
	Lean bool `json:"lean,omitempty"`
	// ProgressEvery is the virtual-time heartbeat interval for the job's
	// /events feed, as a duration literal ("250us", "1ms"). Like ParSim it
	// is an observer knob — heartbeats never change simulated bytes — so it
	// too is excluded from the content address. Empty takes the server
	// default.
	ProgressEvery string `json:"progress_every,omitempty"`
}

// compiled is a JobSpec resolved against defaults: a runnable configuration,
// the program to execute, and the job's content address.
type compiled struct {
	key      string
	cfg      core.Config // observers (Trace, Metrics) unset; the worker attaches fresh ones per run
	prog     core.Program
	identity string // canonical program identity folded into the key
	// progressEvery is the parsed heartbeat interval (0 = server default).
	// An observer setting, so not folded into key.
	progressEvery sim.Dur
}

// compile resolves spec into a compiled job or a client error. It is pure:
// the same spec always compiles to the same key.
func compile(spec JobSpec) (*compiled, error) {
	sys, err := topo.Preset(spec.System)
	if err != nil {
		return nil, err
	}
	mode := core.IMPACC
	switch spec.Mode {
	case "", "impacc":
	case "legacy":
		mode = core.Legacy
	default:
		return nil, fmt.Errorf("serve: unknown mode %q (impacc, legacy)", spec.Mode)
	}
	style := apps.StyleUnified
	if mode == core.Legacy {
		style = apps.StyleAsync
	}
	if spec.Style != "" {
		if style, err = apps.ParseStyle(spec.Style); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	mask, err := topo.ParseClassMask(spec.Devices)
	if err != nil {
		return nil, err
	}
	backed := spec.Backed || spec.Verify
	seed := spec.Seed
	if seed == 0 {
		seed = 2016
	}
	cfg := core.Config{
		System: sys, Mode: mode, MaxTasks: spec.Tasks, DeviceTypes: mask,
		Backed: backed, Seed: seed, JitterPct: 1,
		Parallel: min(max(spec.ParSim, 1), runtime.GOMAXPROCS(0)),
		Lean:     spec.Lean,
	}
	if spec.Chaos != "" {
		cfg.Chaos, err = fault.ParseSpec(spec.Chaos)
		if err != nil {
			return nil, err
		}
	}

	c := &compiled{cfg: cfg}
	if spec.ProgressEvery != "" {
		d, err := sim.ParseDur(spec.ProgressEvery)
		if err != nil {
			return nil, fmt.Errorf("serve: bad progress_every: %v", err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("serve: progress_every must be positive")
		}
		c.progressEvery = d
	}
	n := spec.N
	if n == 0 {
		n = 1024
	}
	switch spec.App {
	case "dgemm":
		c.prog = apps.DGEMM(apps.DGEMMConfig{N: n, Style: style, Verify: spec.Verify})
		c.identity = fmt.Sprintf("app=dgemm;style=%d;n=%d;verify=%t", style, n, spec.Verify)
	case "ep":
		class := spec.Class
		if class == "" {
			class = "A"
		}
		ec, err := apps.ParseEPClass(class)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		shift := 0
		if backed {
			shift = 12 // execute a sample of the pairs, price the full class
		}
		c.prog = apps.EP(apps.EPConfig{Class: ec, Style: style, SampleShift: shift, Verify: spec.Verify})
		c.identity = fmt.Sprintf("app=ep;style=%d;class=%s;shift=%d;verify=%t", style, class, shift, spec.Verify)
	case "jacobi":
		iters := spec.Iters
		if iters == 0 {
			iters = 10
		}
		c.prog = apps.Jacobi(apps.JacobiConfig{N: n, Iters: iters, Style: style, Verify: spec.Verify})
		c.identity = fmt.Sprintf("app=jacobi;style=%d;n=%d;iters=%d;verify=%t", style, n, iters, spec.Verify)
	case "lulesh":
		edge := spec.Edge
		if edge == 0 {
			edge = 16
		}
		steps := spec.Steps
		if steps == 0 {
			steps = 5
		}
		c.prog = apps.LULESH(apps.LULESHConfig{Edge: edge, Steps: steps, Verify: spec.Verify})
		c.identity = fmt.Sprintf("app=lulesh;edge=%d;steps=%d;verify=%t", edge, steps, spec.Verify)
	default:
		return nil, fmt.Errorf("serve: unknown app %q (dgemm, ep, jacobi, lulesh)", spec.App)
	}
	c.key = jobKey(&c.cfg, c.identity)
	return c, nil
}

// jobKey derives the content address: the canonical config digest joined
// with the program identity under one more SHA-256. Two specs get the same
// key if and only if they describe byte-identical runs.
func jobKey(cfg *core.Config, identity string) string {
	var b strings.Builder
	b.WriteString(cfg.Hash())
	b.WriteByte(0)
	b.WriteString(identity)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
