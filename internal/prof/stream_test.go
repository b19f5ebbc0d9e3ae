package prof

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"impacc/internal/sim"
)

func TestReadStreamRejects(t *testing.T) {
	const (
		hdr  = `{"t":"stream","v":"impacc-trace-stream-v1"}` + "\n"
		rec  = `{"t":"claim","node":0,"seq":1,"at":5,"cmd":7,"sid":1}` + "\n"
		tail = `{"t":"end","makespan_ns":10}` + "\n"
	)
	for _, tc := range []struct {
		name, in, want string
	}{
		{"missing header", tail, "missing header"},
		{"empty stream", "", "missing header"},
		{"wrong version", `{"t":"stream","v":"impacc-trace-stream-v0"}` + "\n" + tail, `version "impacc-trace-stream-v0"`},
		{"record before header", rec + hdr + tail, "line 1: record before header"},
		{"unknown record type", hdr + `{"t":"flow","node":0,"seq":1,"at":5}` + "\n" + tail, `line 2: unknown record type "flow"`},
		{"missing end", hdr + rec, "truncated (no end record)"},
		{"bad json", hdr + "{\n" + tail, "line 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadStream(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadStream error = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// assembleLanes is a hand-built two-node trace: node 0 sends command 100
// from span 1; node 1 receives it as command 200 in span 1<<40|1.
func assembleLanes() [][]Rec {
	n1 := uint64(1) << 40
	spanRec := func(node int, seq uint64, s Span) Rec {
		s.Node = node
		return Rec{At: s.End, Node: node, Seq: seq, Kind: RecSpan, Span: s}
	}
	claim := func(node int, seq uint64, at sim.Time, cmd, sid uint64) Rec {
		return Rec{At: at, Node: node, Seq: seq, Kind: RecClaim, Cmd: cmd, Sid: sid}
	}
	edge := func(node int, seq uint64, e Edge) Rec {
		return Rec{At: e.At, Node: node, Seq: seq, Kind: RecEdge, Edge: e}
	}
	return [][]Rec{
		{
			spanRec(0, 1, span(2, 0, -1, "compute", "host", 0, 20)),
			spanRec(0, 2, span(1, 0, -1, "mpi", "send", 20, 30)),
			claim(0, 3, 30, 100, 1),
			// A later, enclosing claim of the same command loses.
			claim(0, 4, 40, 100, 2),
		},
		{
			spanRec(1, 1, span(n1|1, 1, -1, "mpi", "recv", 10, 35)),
			claim(1, 2, 35, 200, n1|1),
			edge(1, 3, Edge{Kind: "msg", From: 100, To: 200, Post: 20, At: 35, Bytes: 64}),
			// The sender's command 300 was never claimed and names no span.
			edge(1, 4, Edge{Kind: "msg", From: 300, To: 200, Post: 25, At: 35, Bytes: 8}),
			// Dependency edges carry span IDs directly.
			edge(1, 5, Edge{Kind: "stream", From: n1 | 1, To: n1 | 2, At: 36}),
			spanRec(1, 6, span(n1|2, 1, 0, "kernel", "k", 35, 50)),
			edge(1, 7, Edge{Kind: "event", From: 2, To: n1 | 2, At: 50}),
		},
	}
}

func TestAssemble(t *testing.T) {
	n1 := uint64(1) << 40
	got := Assemble(assembleLanes(), 12)

	var ids []uint64
	for _, s := range got.Spans {
		ids = append(ids, s.ID)
	}
	if want := []uint64{1, 2, n1 | 1, n1 | 2}; !reflect.DeepEqual(ids, want) {
		t.Errorf("span IDs = %v, want %v (sorted by ID)", ids, want)
	}
	want := []Edge{
		{Kind: "msg", From: 1, To: n1 | 1, Post: 20, At: 35, Bytes: 64},
		{Kind: "stream", From: n1 | 1, To: n1 | 2, At: 36},
		{Kind: "event", From: 2, To: n1 | 2, At: 50},
	}
	if !reflect.DeepEqual(got.Edges, want) {
		t.Errorf("edges = %+v\nwant %+v", got.Edges, want)
	}
	if got.Makespan != 50 {
		t.Errorf("makespan = %d, want 50 (clamped up to the latest span end)", got.Makespan)
	}
	if got := Assemble(assembleLanes(), 80).Makespan; got != 80 {
		t.Errorf("makespan = %d, want 80 (already past every span end)", got)
	}
	if tr := Assemble(nil, 5); tr.Spans != nil || len(tr.Edges) != 0 || tr.Makespan != 5 {
		t.Errorf("empty trace = %+v", tr)
	}
}

// TestStreamWriterRoundTrip: records written in canonical order read back
// to the trace Assemble builds from the lanes directly.
func TestStreamWriterRoundTrip(t *testing.T) {
	lanes := assembleLanes()
	var recs []Rec
	for _, l := range lanes {
		recs = append(recs, l...)
	}
	SortRecs(recs)
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatalf("record %d out of stamp order", i)
		}
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.Emit(recs); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(12); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"t":"stream","v":"impacc-trace-stream-v1"}`+"\n") {
		t.Fatalf("stream header missing: %q", buf.String())
	}
	got, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := Assemble(lanes, 12); !reflect.DeepEqual(got, want) {
		t.Errorf("read back %+v\nwant %+v", got, want)
	}
}
