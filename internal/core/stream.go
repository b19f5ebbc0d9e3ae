package core

import (
	"io"
	"math"

	"impacc/internal/prof"
	"impacc/internal/sim"
)

// SpanSink receives the trace stream of a run incrementally. Emit is called
// with batches already in canonical stream order — consecutive calls carry
// non-overlapping, increasing stamp ranges, so a sink may simply concatenate
// them. Close finalizes the stream with the run's makespan. Both are called
// from the coordinating goroutine only (between simulation windows and after
// the run), never concurrently.
type SpanSink interface {
	Emit(recs []prof.Rec) error
	Close(makespan sim.Time) error
}

// NewStreamWriter returns a SpanSink writing the JSONL trace stream to w
// (see prof.StreamWriter).
func NewStreamWriter(w io.Writer) SpanSink { return prof.NewStreamWriter(w) }

// emit sorts recs into canonical stream order, hands them to sink, and
// returns the latest stamp (0 for no records).
func emit(sink SpanSink, recs []prof.Rec) (sim.Time, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	prof.SortRecs(recs)
	return recs[len(recs)-1].At, sink.Emit(recs)
}

// FlushWindow emits every retained record stamped strictly before fence and
// drops it from memory. The runtime calls it at window barriers, where the
// fence guarantee (every shard past the fence's events, every future record
// stamped at or after it) makes the flushed prefix final: concatenating the
// per-window batches reproduces the global stamp-sorted stream byte for
// byte. No-op on buffered tracers and after a sink error.
func (tr *Tracer) FlushWindow(fence sim.Time) {
	if tr.sink == nil || tr.sinkErr != nil {
		return
	}
	tr.batch = tr.batch[:0]
	for _, l := range tr.lanes {
		n := 0
		for n < len(l.recs) && l.recs[n].At < fence {
			n++
		}
		if n == 0 {
			continue
		}
		tr.batch = append(tr.batch, l.recs[:n]...)
		rest := copy(l.recs, l.recs[n:])
		clear(l.recs[rest:]) // release span/edge strings held by the flushed prefix
		l.recs = l.recs[:rest]
	}
	var last sim.Time
	last, tr.sinkErr = emit(tr.sink, tr.batch)
	tr.maxFlushed = max(tr.maxFlushed, last)
}

// CloseStream flushes everything still retained and finalizes the sink with
// the run's makespan (clamped up to the latest flushed stamp). Returns the
// first sink error, if any. No-op on buffered tracers.
func (tr *Tracer) CloseStream(makespan sim.Time) error {
	if tr.sink == nil {
		return nil
	}
	tr.FlushWindow(sim.Time(math.MaxInt64))
	if tr.sinkErr != nil {
		return tr.sinkErr
	}
	tr.sinkErr = tr.sink.Close(max(makespan, tr.maxFlushed))
	return tr.sinkErr
}

// StreamErr reports the first sink failure of a streaming tracer.
func (tr *Tracer) StreamErr() error { return tr.sinkErr }

// WriteStream exports a buffered tracer as the trace stream: every record
// of every lane merged into canonical stream order and written through the
// same sort and writer the streaming path uses, so the bytes are identical
// to a streamed run of the same job.
func (tr *Tracer) WriteStream(w io.Writer, makespan sim.Time) error {
	var recs []prof.Rec
	for _, l := range tr.lanes {
		recs = append(recs, l.recs...)
	}
	sink := NewStreamWriter(w)
	last, err := emit(sink, recs)
	if err != nil {
		return err
	}
	return sink.Close(max(makespan, last))
}
