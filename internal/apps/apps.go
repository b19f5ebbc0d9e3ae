// Package apps implements the paper's four evaluation applications —
// DGEMM, NAS EP, 2-D Jacobi, and a LULESH-style shock-hydrodynamics proxy
// (§4.1) — as programs over the core runtime. Each communication-heavy
// application comes in the three styles of Figure 4:
//
//   - StyleSync:    blocking MPI + synchronous OpenACC constructs (Fig 4a)
//   - StyleAsync:   non-blocking MPI + async queues + explicit waits (Fig 4b)
//   - StyleUnified: IMPACC directives — device buffers on the unified
//     activity queue, no host synchronization (Fig 4c)
//
// The first two run under both runtimes; StyleUnified requires IMPACC.
package apps

import "fmt"

// Style selects the programming style of Figure 4.
type Style int

const (
	// StyleSync is Figure 4 (a).
	StyleSync Style = iota
	// StyleAsync is Figure 4 (b).
	StyleAsync
	// StyleUnified is Figure 4 (c).
	StyleUnified
)

// ParseStyle parses a style by the name String gives it, the spelling
// impacc-run's -style flag and serve's job API accept.
func ParseStyle(s string) (Style, error) {
	switch s {
	case "sync":
		return StyleSync, nil
	case "async":
		return StyleAsync, nil
	case "unified":
		return StyleUnified, nil
	}
	return 0, fmt.Errorf("unknown style %q (sync, async, unified)", s)
}

func (s Style) String() string {
	switch s {
	case StyleSync:
		return "sync"
	case StyleAsync:
		return "async"
	default:
		return "unified"
	}
}

// checkClose verifies two values agree to a relative tolerance.
func checkClose(what string, got, want, tol float64) error {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	scale := want
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	if diff > tol*scale {
		return fmt.Errorf("%s: got %g, want %g (tol %g)", what, got, want, tol)
	}
	return nil
}
