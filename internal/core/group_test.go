package core

import (
	"slices"
	"testing"

	"impacc/internal/topo"
)

// refLeaders is the brute-force node-leader rule: scan every member, keep
// the first communicator rank seen on each node in first-seen order, then
// promote root to lead its own node.
func refLeaders(ranks []int, pl []Placement, root int) []int {
	seen := map[int]int{}
	var order []int
	for crank, wrank := range ranks {
		node := pl[wrank].Node
		if _, ok := seen[node]; !ok {
			seen[node] = crank
			order = append(order, node)
		}
	}
	seen[pl[ranks[root]].Node] = root
	var list []int
	for _, node := range order {
		list = append(list, seen[node])
	}
	return list
}

// checkGroup compares g's layout and leaders(root), for every root, with
// the brute-force reference over placements pl.
func checkGroup(t *testing.T, name string, g *commGroup, pl []Placement) {
	t.Helper()
	n := len(g.ranks)
	if len(g.slot) != n {
		t.Fatalf("%s: %d slots for %d ranks", name, len(g.slot), n)
	}
	// With root 0 nothing is promoted: the reference is the plain
	// first-seen leader list.
	if want := refLeaders(g.ranks, pl, 0); !slices.Equal(g.leaders, want) {
		t.Fatalf("%s: leaders %v, want %v", name, g.leaders, want)
	}
	shared := slices.Clone(g.leaders)
	for crank, wrank := range g.ranks {
		s := g.slot[crank]
		if lead := g.ranks[g.leaders[s]]; pl[lead].Node != pl[wrank].Node {
			t.Errorf("%s: rank %d (node %d) in slot %d led by node %d", name, crank, pl[wrank].Node, s, pl[lead].Node)
		}
	}
	for s, members := range g.members {
		var want []int
		for crank, wrank := range g.ranks {
			if pl[wrank].Node == pl[g.ranks[g.leaders[s]]].Node {
				want = append(want, crank)
			}
		}
		if !slices.Equal(members, want) {
			t.Errorf("%s: slot %d members %v, want %v", name, s, members, want)
		}
	}
	c := &Comm{g: g}
	for root := 0; root < n; root++ {
		if got, want := c.leaders(root), refLeaders(g.ranks, pl, root); !slices.Equal(got, want) {
			t.Errorf("%s: leaders(%d) = %v, want %v", name, root, got, want)
		}
	}
	if !slices.Equal(g.leaders, shared) {
		t.Errorf("%s: leaders(root) modified the shared slice: %v, was %v", name, g.leaders, shared)
	}
}

func TestCommGroupMatchesReference(t *testing.T) {
	for _, name := range []string{"psg", "beacon:4", "titan:8"} {
		sys, err := topo.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(Config{System: sys})
		if err != nil {
			t.Fatal(err)
		}
		checkGroup(t, name+"/world", rt.world, rt.placements)
		for _, tk := range rt.tasks {
			if tk.World().g != rt.world {
				t.Fatalf("%s: task %d has a private world group", name, tk.Rank())
			}
		}
	}

	// A split with interleaved membership and reversed keys: every
	// communicator mixes ranks of several nodes out of world order.
	sys, err := topo.Preset("beacon:4")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(Config{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	const colors = 3
	comms := make([]*Comm, len(rt.tasks))
	if _, err := rt.Execute(func(tk *Task) {
		c := tk.World().Split(tk.Rank()%colors, -tk.Rank())
		comms[tk.Rank()] = c
		if d := c.Dup(); d.g != c.g {
			t.Errorf("rank %d: Dup built a private group", tk.Rank())
		}
	}); err != nil {
		t.Fatal(err)
	}
	for color := 0; color < colors; color++ {
		g := comms[color].g
		var want []int
		for r := len(comms) - 1; r >= 0; r-- {
			if r%colors == color {
				want = append(want, r)
				if comms[r].g != g {
					t.Errorf("color %d: rank %d holds a private group", color, r)
				}
				if comms[r].WorldRank(comms[r].Rank()) != r {
					t.Errorf("color %d: rank %d maps to world rank %d", color, r, comms[r].WorldRank(comms[r].Rank()))
				}
			}
		}
		if !slices.Equal(g.ranks, want) {
			t.Fatalf("color %d: ranks %v, want %v", color, g.ranks, want)
		}
		checkGroup(t, "beacon:4/split", g, rt.placements)
	}
}

// TestSplitRegistryDrained guards the split registry's lifetime: each
// instance's entry goes away once its last member has looked it up, so
// repeated splits (including MPI_UNDEFINED members and splits of split
// communicators) leave nothing behind.
func TestSplitRegistryDrained(t *testing.T) {
	sys, err := topo.Preset("titan:8")
	if err != nil {
		t.Fatal(err)
	}
	// Four workers: members on different shards deposit and look up
	// concurrently.
	rt, err := NewRuntime(Config{System: sys, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.shards) != len(sys.Nodes) {
		t.Fatalf("titan:8 ran on %d shards, want one per node", len(rt.shards))
	}
	if _, err := rt.Execute(func(tk *Task) {
		w := tk.World()
		for i := 0; i < 100; i++ {
			color := (tk.Rank() + i) % 3
			if color == 2 {
				color = -1 // MPI_UNDEFINED
			}
			c := w.Split(color, i-tk.Rank())
			if c != nil && i%10 == 0 {
				c.Split(0, 0)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.splits); n != 0 {
		t.Errorf("split registry holds %d entries after the run, want 0", n)
	}
}
