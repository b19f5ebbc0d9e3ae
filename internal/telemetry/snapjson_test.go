package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// reflectJSON is the reference encoding WriteJSON must reproduce byte for
// byte: encoding/json with a one-space indent.
func reflectJSON(s *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(s)
	return buf.Bytes(), err
}

// checkWriteJSON asserts that WriteJSON and the reflective encoding agree:
// equal bytes, or both fail.
func checkWriteJSON(t *testing.T, what string, s *Snapshot) {
	t.Helper()
	want, werr := reflectJSON(s)
	var got bytes.Buffer
	gerr := s.WriteJSON(&got)
	switch {
	case werr != nil && gerr != nil:
		if got.Len() != 0 {
			t.Errorf("%s: WriteJSON wrote %d bytes before failing", what, got.Len())
		}
	case werr != nil || gerr != nil:
		t.Fatalf("%s: encoding/json error %v, WriteJSON error %v", what, werr, gerr)
	case !bytes.Equal(got.Bytes(), want):
		t.Fatalf("%s: WriteJSON differs from encoding/json\n got: %q\nwant: %q", what, got.Bytes(), want)
	}
}

// FuzzSnapshotWriteJSON differentially tests the direct writer against
// encoding/json on registries and hand-built snapshots made from fuzzed
// names, help strings, label values, counter values and gauge floats.
func FuzzSnapshotWriteJSON(f *testing.F) {
	f.Add("msgs", "messages <sent> & received", "n0", "pcie0", int64(7), 0.375)
	f.Add("", "", "", "", int64(0), 0.0)
	f.Add("a b", "c d", "\x00\x01\x1f", "\xff\xfe", int64(-1), 1e-7)
	f.Add("x", "", "\t\n\r\b\f", `"\`, int64(math.MaxInt64), math.NaN())
	f.Fuzz(func(t *testing.T, name, help, label, label2 string, cv int64, gv float64) {
		r := NewRegistry()
		now := cv
		r.SetClock(func() int64 { return now })
		r.Counter(name+"_total", help, "node", label).Add(cv)
		r.Counter(name+"_total", help, "node", label2).Inc()
		r.Counter(name+"_bare", "")
		r.Gauge(name+"_util", help, "node", label, "link", label2).Set(gv)
		r.Gauge(name+"_peak", help).SetMax(gv)
		h := r.Histogram(name+"_ns", help, "op", label2)
		h.Observe(cv)
		h.Observe(int64(gv))
		checkWriteJSON(t, "registry", r.Snapshot(cv))
		checkWriteJSON(t, "empty registry", NewRegistry().Snapshot(cv))

		// Every field at a fuzzed value, and nil beside empty slices.
		hand := &Snapshot{AtNs: -cv, Families: []FamilySnap{
			{Name: name, Help: help, Kind: label},
			{Name: label, Kind: "gauge", Series: []SeriesSnap{}},
			{Name: label2, Help: name, Kind: help, Series: []SeriesSnap{
				{LastNs: cv},
				{Labels: []Label{}, LastNs: -cv, GaugeValue: -gv},
				{Labels: []Label{{Key: label, Value: label2}, {Key: help, Value: name}},
					Value: cv, GaugeValue: gv, Count: uint64(cv), Sum: cv, Min: -cv, Max: cv,
					Buckets: []BucketSnap{{Le: cv, N: uint64(cv)}, {Le: 0, N: 0}}},
				{Buckets: []BucketSnap{}},
			}},
		}}
		checkWriteJSON(t, "hand-built", hand)
		checkWriteJSON(t, "no families", &Snapshot{AtNs: cv})
	})
}

// TestWriteJSONChunks: a snapshot larger than one chunk reaches the writer
// in several writes, none much larger than the chunk, and still matches
// the reflective encoding.
func TestWriteJSONChunks(t *testing.T) {
	r := NewRegistry()
	for i := range 4096 {
		r.Counter("msgs_total", "messages", "node", strconv.Itoa(i)).Add(int64(i))
	}
	s := r.Snapshot(1)
	want, err := reflectJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	var w chunkWriter
	if err := s.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.buf.Bytes(), want) {
		t.Fatal("chunked WriteJSON differs from encoding/json")
	}
	if w.writes < 2 || w.largest > jsonChunk+4<<10 {
		t.Fatalf("%d writes, largest %d B, for a %d B document", w.writes, w.largest, len(want))
	}
}

type chunkWriter struct {
	buf             bytes.Buffer
	writes, largest int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(p))
	return w.buf.Write(p)
}
