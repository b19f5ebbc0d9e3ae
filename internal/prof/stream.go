package prof

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"impacc/internal/sim"
)

// The trace stream is the bounded-memory export of a causal trace: one JSON
// object per line, written incrementally while the run executes (core's
// streaming tracer) or in one pass from a buffered tracer. The line order is
// the canonical stream order (at, node, seq) — records merged across node
// lanes by stamp — so the bytes are independent of how the producer batched
// its flushes, and a streamed file compares byte-for-byte against a
// buffered-then-exported one.
//
// Layout:
//
//	{"t":"stream","v":"impacc-trace-stream-v1"}   header, first line
//	{"t":"span","node":N,"seq":S,"at":T,"span":{...}}
//	{"t":"edge","node":N,"seq":S,"at":T,"edge":{...}}
//	{"t":"claim","node":N,"seq":S,"at":T,"cmd":C,"sid":I}
//	{"t":"end","makespan_ns":M}                   trailer, last line

// StreamVersion tags the stream header; readers reject other versions.
const StreamVersion = "impacc-trace-stream-v1"

// RecKind tags a trace record.
type RecKind uint8

// Record kinds, named on the wire by recTypes.
const (
	RecSpan  RecKind = iota // a closed span
	RecEdge                 // a causal edge
	RecClaim                // a command claimed by the span that observed it
)

var recTypes = [...]string{RecSpan: "span", RecEdge: "edge", RecClaim: "claim"}

// Rec is one trace record: the in-memory form a tracer's node lanes hold
// and the unit of the trace stream. Every record carries its stamp At — the
// virtual instant it was appended (a span's end, an edge's match time, a
// claim's claim time) — plus its node lane and a lane-local sequence number.
// A lane only ever appends at its engine's current time and the clock never
// moves backwards, so stamps are non-decreasing along a lane; the total
// order (At, Node, Seq) is therefore the canonical stream order, and any
// fence F splits every lane exactly: records below F are final, and
// anything recorded later lands at or above F.
type Rec struct {
	At   sim.Time
	Node int
	Seq  uint64
	Kind RecKind
	Span Span   // RecSpan
	Edge Edge   // RecEdge; msg edges name command trace IDs, resolved by Assemble
	Cmd  uint64 // RecClaim: command trace ID
	Sid  uint64 // RecClaim: claiming span ID
}

// SortRecs orders records by the canonical stream order (At, Node, Seq) — a
// total order, since (Node, Seq) is unique.
func SortRecs(recs []Rec) {
	slices.SortFunc(recs, func(a, b Rec) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Node, b.Node); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
}

// recLine is the wire form of one record line. Span and Edge point into the
// record being written, so encoding copies nothing.
type recLine struct {
	T    string `json:"t"` // span | edge | claim
	Node int    `json:"node"`
	Seq  uint64 `json:"seq"`
	At   int64  `json:"at"`
	Span *Span  `json:"span,omitempty"` // t == "span"
	Edge *Edge  `json:"edge,omitempty"` // t == "edge"
	Cmd  uint64 `json:"cmd,omitempty"`  // t == "claim": command trace ID
	Sid  uint64 `json:"sid,omitempty"`  // t == "claim": claiming span ID
}

// StreamWriter writes the JSONL trace stream: a header line, one line per
// record, and an end line carrying the makespan. Output is buffered; errors
// stick and resurface on every later call.
type StreamWriter struct {
	bw   *bufio.Writer
	enc  *json.Encoder
	line recLine // reused across records
	err  error
}

// NewStreamWriter returns a StreamWriter on w. The header is written
// immediately; the caller still owns w and closes it after Close.
func NewStreamWriter(w io.Writer) *StreamWriter {
	bw := bufio.NewWriter(w)
	sw := &StreamWriter{bw: bw, enc: json.NewEncoder(bw)}
	sw.err = sw.enc.Encode(struct {
		T string `json:"t"`
		V string `json:"v"`
	}{"stream", StreamVersion})
	return sw
}

// Emit writes records, which must already be in canonical stream order.
func (sw *StreamWriter) Emit(recs []Rec) error {
	for i := range recs {
		if sw.err != nil {
			return sw.err
		}
		r := &recs[i]
		sw.line = recLine{T: recTypes[r.Kind], Node: r.Node, Seq: r.Seq, At: int64(r.At)}
		switch r.Kind {
		case RecSpan:
			sw.line.Span = &r.Span
		case RecEdge:
			sw.line.Edge = &r.Edge
		case RecClaim:
			sw.line.Cmd, sw.line.Sid = r.Cmd, r.Sid
		}
		sw.err = sw.enc.Encode(&sw.line)
	}
	return sw.err
}

// Close writes the end line with makespan and flushes.
func (sw *StreamWriter) Close(makespan sim.Time) error {
	if sw.err != nil {
		return sw.err
	}
	sw.err = sw.enc.Encode(struct {
		T        string `json:"t"`
		Makespan int64  `json:"makespan_ns"`
	}{"end", int64(makespan)})
	if sw.err == nil {
		sw.err = sw.bw.Flush()
	}
	return sw.err
}

// streamLine is the union shape used to parse any line of the stream.
type streamLine struct {
	recLine
	V        string `json:"v,omitempty"`           // t == "stream"
	Makespan int64  `json:"makespan_ns,omitempty"` // t == "end"
}

// rec decodes a record line; false for a span or edge line without its
// payload, which the reader skips.
func (l *recLine) rec() (Rec, bool) {
	r := Rec{At: sim.Time(l.At), Node: l.Node, Seq: l.Seq}
	switch l.T {
	case "span":
		if l.Span == nil {
			return r, false
		}
		r.Kind, r.Span = RecSpan, *l.Span
	case "edge":
		if l.Edge == nil {
			return r, false
		}
		r.Kind, r.Edge = RecEdge, *l.Edge
	default:
		r.Kind, r.Cmd, r.Sid = RecClaim, l.Cmd, l.Sid
	}
	return r, true
}

// ReadStream parses a trace stream and reassembles, through Assemble, the
// same Trace the producing tracer returns from its buffered Data view.
func ReadStream(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	var (
		recs     []Rec
		makespan int64
		sawHdr   bool
		sawEnd   bool
		lineNo   int
	)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var l streamLine
		if err := json.Unmarshal(line, &l); err != nil {
			return Trace{}, fmt.Errorf("prof: trace stream line %d: %w", lineNo, err)
		}
		switch l.T {
		case "stream":
			if l.V != StreamVersion {
				return Trace{}, fmt.Errorf("prof: trace stream version %q (want %q)", l.V, StreamVersion)
			}
			sawHdr = true
		case "end":
			makespan = l.Makespan
			sawEnd = true
		case "span", "edge", "claim":
			if !sawHdr {
				return Trace{}, fmt.Errorf("prof: trace stream line %d: record before header", lineNo)
			}
			if rec, ok := l.rec(); ok {
				recs = append(recs, rec)
			}
		default:
			return Trace{}, fmt.Errorf("prof: trace stream line %d: unknown record type %q", lineNo, l.T)
		}
	}
	if err := sc.Err(); err != nil {
		return Trace{}, fmt.Errorf("prof: trace stream: %w", err)
	}
	if !sawHdr {
		return Trace{}, fmt.Errorf("prof: trace stream: missing header")
	}
	if !sawEnd {
		return Trace{}, fmt.Errorf("prof: trace stream: truncated (no end record)")
	}
	// Within a node the stream is already in Seq order (stamps never
	// decrease along a lane), so a stable sort by node restores the lanes.
	slices.SortStableFunc(recs, func(a, b Rec) int { return cmp.Compare(a.Node, b.Node) })
	return Assemble([][]Rec{recs}, sim.Time(makespan)), nil
}

// Assemble builds the causal trace from trace records. lanes holds every
// node's records in Seq order, nodes ascending; how the records are split
// among the slices does not matter. The result has spans sorted by ID and
// edges in that lane order, with message endpoints resolved from command
// IDs to their claiming spans — the first claim of a command wins, so an
// inner blocking call keeps its precise span even when an enclosing
// collective sweeps the region afterwards — and edges whose endpoints have
// no recorded span dropped. The makespan is clamped up to the latest span
// end.
func Assemble(lanes [][]Rec, makespan sim.Time) Trace {
	var spans []Span
	claims := map[uint64]uint64{}
	for _, recs := range lanes {
		for i := range recs {
			switch recs[i].Kind {
			case RecSpan:
				spans = append(spans, recs[i].Span)
			case RecClaim:
				if _, ok := claims[recs[i].Cmd]; !ok {
					claims[recs[i].Cmd] = recs[i].Sid
				}
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	ids := make(map[uint64]bool, len(spans))
	for i := range spans {
		ids[spans[i].ID] = true
		if spans[i].End > makespan {
			makespan = spans[i].End
		}
	}
	resolve := func(id uint64) uint64 {
		if sp, ok := claims[id]; ok && ids[sp] {
			return sp
		}
		return id
	}
	edges := make([]Edge, 0)
	for _, recs := range lanes {
		for i := range recs {
			if recs[i].Kind != RecEdge {
				continue
			}
			e := recs[i].Edge
			if e.Kind == "msg" {
				e.From = resolve(e.From)
				e.To = resolve(e.To)
			}
			if !ids[e.From] || !ids[e.To] {
				continue
			}
			edges = append(edges, e)
		}
	}
	return Trace{Makespan: makespan, Spans: spans, Edges: edges}
}
