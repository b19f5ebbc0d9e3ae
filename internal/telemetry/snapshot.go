package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time export of a registry: plain data, safe to
// embed in run reports and to serialize. Families, series, and labels are
// sorted, so marshaling a snapshot is deterministic.
type Snapshot struct {
	// AtNs is the virtual time the snapshot was taken, in nanoseconds.
	AtNs     int64          `json:"at_ns"`
	Families []FamilySnap   `json:"families"`
	index    map[string]int // family name -> Families position
}

// FamilySnap is one metric family in a snapshot.
type FamilySnap struct {
	Name   string       `json:"name"`
	Help   string       `json:"help,omitempty"`
	Kind   string       `json:"kind"`
	Series []SeriesSnap `json:"series"`
}

// SeriesSnap is one series in a snapshot.
type SeriesSnap struct {
	Labels []Label `json:"labels,omitempty"`
	LastNs int64   `json:"last_ns"`
	// Counter value.
	Value int64 `json:"value,omitempty"`
	// Gauge value.
	GaugeValue float64 `json:"gauge_value,omitempty"`
	// Histogram aggregate and non-cumulative log2 buckets.
	Count   uint64       `json:"count,omitempty"`
	Sum     int64        `json:"sum,omitempty"`
	Min     int64        `json:"min,omitempty"`
	Max     int64        `json:"max,omitempty"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// BucketSnap is one occupied histogram bucket: N samples with value <= Le
// (and greater than the previous bucket's Le).
type BucketSnap struct {
	Le int64  `json:"le"`
	N  uint64 `json:"n"`
}

// Snapshot exports the registry's current state at virtual time atNs.
// Each family's Series is sized once, and its series' Labels are carved
// out of one backing array per family.
func (r *Registry) Snapshot(atNs int64) *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{AtNs: atNs, Families: make([]FamilySnap, 0, len(r.names)),
		index: make(map[string]int, len(r.names))}
	for _, f := range r.sortedFamilies() {
		fs := FamilySnap{Name: f.name, Help: f.help, Kind: f.kind.String()}
		sorted := f.sortedSeries()
		fs.Series = make([]SeriesSnap, len(sorted))
		nk := len(f.keys)
		labels := make([]Label, len(sorted)*nk)
		for j, s := range sorted {
			ss := &fs.Series[j]
			ss.LastNs = s.lastNs
			if nk > 0 {
				ss.Labels = labels[j*nk : (j+1)*nk : (j+1)*nk]
				for i, k := range f.keys {
					ss.Labels[i] = Label{Key: k, Value: s.values[i]}
				}
			}
			switch f.kind {
			case KindCounter:
				ss.Value = s.val
			case KindGauge:
				ss.GaugeValue = s.gauge()
			default:
				h := s.hist
				ss.Count = h.count
				ss.Sum = h.sum
				ss.Min = h.min
				ss.Max = h.max
				for i, n := range h.buckets {
					if n == 0 {
						continue
					}
					le := int64(0)
					if i > 0 {
						le = 1<<uint(i) - 1
					}
					ss.Buckets = append(ss.Buckets, BucketSnap{Le: le, N: n})
				}
			}
		}
		snap.index[f.name] = len(snap.Families)
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// Family returns the named family of the snapshot, or nil.
func (s *Snapshot) Family(name string) *FamilySnap {
	if s.index != nil {
		if i, ok := s.index[name]; ok {
			return &s.Families[i]
		}
		return nil
	}
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Label returns the value of the named label, or "".
func (ss *SeriesSnap) Label(key string) string {
	for _, l := range ss.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// promEscape escapes a label value for the Prometheus text format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// promLabels renders a sorted label set, optionally with an extra le pair.
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		// promEscape already produced the exact escaped body; %q would
		// re-escape its backslashes, emitting \\n where Prometheus expects
		// \n. Quote by concatenation, not by formatting.
		parts[i] = l.Key + `="` + promEscape(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus emits the snapshot in the Prometheus text exposition
// format (version 0.0.4). Histograms render with cumulative le buckets plus
// the +Inf bucket, _sum, and _count, so standard scrapers and promtool can
// consume the output. Output is deterministic.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	for fi := range s.Families {
		f := &s.Families[fi]
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for i := range f.Series {
			ss := &f.Series[i]
			switch f.Kind {
			case "counter":
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.Name, promLabels(ss.Labels), ss.Value); err != nil {
					return err
				}
			case "gauge":
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, promLabels(ss.Labels),
					strconv.FormatFloat(ss.GaugeValue, 'g', -1, 64)); err != nil {
					return err
				}
			default: // histogram
				cum := uint64(0)
				for _, b := range ss.Buckets {
					cum += b.N
					le := Label{Key: "le", Value: strconv.FormatInt(b.Le, 10)}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, promLabels(ss.Labels, le), cum); err != nil {
						return err
					}
				}
				inf := Label{Key: "le", Value: "+Inf"}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, promLabels(ss.Labels, inf), ss.Count); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", f.Name, promLabels(ss.Labels), ss.Sum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, promLabels(ss.Labels), ss.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
