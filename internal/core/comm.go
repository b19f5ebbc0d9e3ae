package core

import (
	"hash/fnv"

	"impacc/internal/sim"

	"impacc/internal/mpi"
	"impacc/internal/xmem"
)

// Comm is an MPI communicator: an ordered group of tasks with an isolated
// matching context. Point-to-point and collective operations exist on both
// Task (MPI_COMM_WORLD shorthand) and Comm. Each member holds its own Comm
// (rank, sequence counters) over one commGroup shared by all members.
type Comm struct {
	t *Task
	// id is the context id carried by every message of this communicator;
	// matching never crosses ids. World is 0.
	id int
	// g is the membership shared by every member's view; never mutated.
	g *commGroup
	// myRank is this task's rank within the communicator.
	myRank int

	collSeq  int
	splitSeq int
}

// commGroup is a communicator's membership and node layout, built once per
// communicator and shared read-only by all its members (and by Dup
// children), so no member pays O(size) to find its node leaders.
type commGroup struct {
	// ranks maps communicator rank -> world rank.
	ranks []int
	// leaders is the first communicator rank on each participating node,
	// in first-seen (communicator rank) order; its index is the node slot.
	leaders []int
	// slot maps communicator rank -> node slot.
	slot []int
	// members lists, per node slot, the communicator ranks on that node in
	// ascending order.
	members [][]int
}

// newGroup lays out the communicator whose rank r is world rank ranks[r].
// slotOf is zeroed scratch with one entry per node (node -> slot+1), handed
// back zeroed so one Split can lay out all its colors in O(nodes + size).
func (rt *Runtime) newGroup(ranks, slotOf []int) *commGroup {
	g := &commGroup{ranks: ranks, slot: make([]int, len(ranks))}
	var count []int
	for crank, wrank := range ranks {
		node := rt.placements[wrank].Node
		if slotOf[node] == 0 {
			g.leaders = append(g.leaders, crank)
			count = append(count, 0)
			slotOf[node] = len(g.leaders)
		}
		s := slotOf[node] - 1
		g.slot[crank] = s
		count[s]++
	}
	// One backing array for all member lists.
	backing := make([]int, len(ranks))
	g.members = make([][]int, len(g.leaders))
	off := 0
	for s, n := range count {
		g.members[s] = backing[off : off : off+n]
		off += n
	}
	for crank, s := range g.slot {
		g.members[s] = append(g.members[s], crank)
	}
	for _, lead := range g.leaders {
		slotOf[rt.placements[ranks[lead]].Node] = 0
	}
	return g
}

// World returns the task's MPI_COMM_WORLD view.
func (t *Task) World() *Comm { return t.world }

// Rank returns the calling task's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the number of tasks in the communicator.
func (c *Comm) Size() int { return len(c.g.ranks) }

// WorldRank translates a communicator rank to the world rank.
func (c *Comm) WorldRank(r int) int { return c.g.ranks[r] }

// ID returns the communicator's context id.
func (c *Comm) ID() int { return c.id }

func (c *Comm) checkRank(r int) {
	if r < 0 || r >= len(c.g.ranks) {
		c.t.failf("comm %d: rank %d out of range [0,%d)", c.id, r, len(c.g.ranks))
	}
}

// Split is MPI_Comm_split: tasks supplying the same color form a new
// communicator, ordered by (key, parent rank). Every member of the parent
// must call Split in the same order. Color < 0 (MPI_UNDEFINED) returns nil.
func (c *Comm) Split(color, key int) *Comm {
	t := c.t
	c.splitSeq++
	n := c.Size()
	// Deposit this member's (color, key) with the runtime; the group
	// metadata travels out of band (it is control information, not
	// simulated application data, so it also works on unbacked runs).
	t.rt.depositSplit(c.id, c.splitSeq, c.myRank, color, key)
	// The (color, key) exchange still costs a real allgather on the wire.
	mine := t.tempAlloc(16)
	all := t.tempAlloc(int64(16 * n))
	defer t.tempFree(mine)
	defer t.tempFree(all)
	c.Allgather(mine, 2, mpi.Int64, all)
	g, rank, err := t.rt.lookupSplit(c, c.splitSeq)
	if err != nil {
		t.fail(err)
	}
	if g == nil {
		return nil
	}
	return &Comm{t: t, id: commID(c.id, c.splitSeq, color), g: g, myRank: rank}
}

// Dup is MPI_Comm_dup: same group, fresh matching context.
func (c *Comm) Dup() *Comm {
	c.splitSeq++
	return &Comm{t: c.t, id: commID(c.id, c.splitSeq, -1), g: c.g, myRank: c.myRank}
}

// commID derives a deterministic context id shared by all members that
// compute it with the same inputs.
func commID(parent, seq, color int) int {
	h := fnv.New32a()
	var b [12]byte
	put := func(off, v int) {
		b[off] = byte(v)
		b[off+1] = byte(v >> 8)
		b[off+2] = byte(v >> 16)
		b[off+3] = byte(v >> 24)
	}
	put(0, parent)
	put(4, seq)
	put(8, color)
	h.Write(b[:])
	id := int(h.Sum32() & 0x7fffffff)
	if id == 0 {
		id = 1
	}
	return id
}

// ---- Communicator-scoped point-to-point ---------------------------------

// Send is MPI_Send on this communicator (dst is a communicator rank).
func (c *Comm) Send(addr xmem.Addr, count int, dt mpi.Datatype, dst, tag int, opts ...Opt) {
	c.checkRank(dst)
	c.t.sendOn(c, addr, count, dt, dst, tag, opts)
}

// Recv is MPI_Recv on this communicator.
func (c *Comm) Recv(addr xmem.Addr, count int, dt mpi.Datatype, src, tag int, opts ...Opt) {
	if src != AnySource {
		c.checkRank(src)
	}
	c.t.recvOn(c, addr, count, dt, src, tag, opts)
}

// Isend is MPI_Isend on this communicator.
func (c *Comm) Isend(addr xmem.Addr, count int, dt mpi.Datatype, dst, tag int, opts ...Opt) *Request {
	c.checkRank(dst)
	return c.t.isendOn(c, addr, count, dt, dst, tag, opts)
}

// Irecv is MPI_Irecv on this communicator.
func (c *Comm) Irecv(addr xmem.Addr, count int, dt mpi.Datatype, src, tag int, opts ...Opt) *Request {
	if src != AnySource {
		c.checkRank(src)
	}
	return c.t.irecvOn(c, addr, count, dt, src, tag, opts)
}

// Sendrecv is MPI_Sendrecv on this communicator.
func (c *Comm) Sendrecv(sendAddr xmem.Addr, sendCount int, sdt mpi.Datatype, dst, sendTag int,
	recvAddr xmem.Addr, recvCount int, rdt mpi.Datatype, src, recvTag int, opts ...Opt) {
	sr := c.Isend(sendAddr, sendCount, sdt, dst, sendTag, opts...)
	rr := c.Irecv(recvAddr, recvCount, rdt, src, recvTag, opts...)
	c.t.Wait(sr, rr)
}

// Iprobe is MPI_Iprobe on this communicator: a non-blocking check for a
// matching message, returning its element count in dt units when present.
func (c *Comm) Iprobe(src, tag int, dt mpi.Datatype) (bool, int) {
	t := c.t
	wsrc := src
	if src != AnySource {
		c.checkRank(src)
		wsrc = c.g.ranks[src]
	}
	ok, bytes := t.node.hub.Probe(t.rank, wsrc, tag, c.id)
	return ok, int(bytes / dt.Size())
}

// Probe is MPI_Probe: block until a matching message is available,
// returning its element count. It polls the hub with exponential backoff;
// since a poll loop would keep the event queue alive forever, a probe that
// sees nothing for 60 virtual seconds aborts the task as a likely deadlock
// (real MPI would hang here).
func (c *Comm) Probe(src, tag int, dt mpi.Datatype) int {
	t := c.t
	start := t.proc.Now()
	backoff := sim.Dur(200)
	for {
		if ok, n := c.Iprobe(src, tag, dt); ok {
			t.commTime += dur(t.proc.Now() - start)
			t.mpiObserve("probe", start)
			return n
		}
		if t.proc.Now()-start > sim.Time(60*sim.Second) {
			t.failf("Probe(src=%d, tag=%d): no matching message after 60s (deadlock?)", src, tag)
		}
		t.proc.Sleep(backoff)
		if backoff < sim.Millisecond {
			backoff *= 2
		}
	}
}
