package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// jsonChunk is the buffer size at which WriteJSON hands output to its
// writer, so a node-scale snapshot is never held whole as one document.
const jsonChunk = 64 << 10

// Indentation of each nesting level of the snapshot document.
const (
	nl1 = "\n "
	nl2 = "\n  "
	nl3 = "\n   "
	nl4 = "\n    "
	nl5 = "\n     "
	nl6 = "\n      "
	nl7 = "\n       "
)

// WriteJSON emits the snapshot as indented JSON. Output is deterministic.
//
// The bytes are exactly those of a json.Encoder with SetIndent("", " ")
// encoding the Snapshot: field order and names follow the struct tags,
// omitempty fields are dropped when zero (a -0 gauge included), nil slices
// render as null, strings are HTML-safe escaped, floats use the ES6 number
// format, and the document ends in a newline. The writer walks the
// snapshot directly instead of marshaling by reflection and re-indenting,
// and flushes every jsonChunk bytes. A NaN or infinite gauge is an error,
// as it is for encoding/json; it is reported before anything is written.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	for fi := range s.Families {
		f := &s.Families[fi]
		for i := range f.Series {
			if v := f.Series[i].GaugeValue; math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("telemetry: family %s: unsupported gauge value %v", f.Name, v)
			}
		}
	}
	b := make([]byte, 0, jsonChunk+4<<10)
	flush := func() error {
		_, err := w.Write(b)
		b = b[:0]
		return err
	}
	b = append(b, "{"+nl1+`"at_ns": `...)
	b = strconv.AppendInt(b, s.AtNs, 10)
	b = append(b, ","+nl1+`"families": `...)
	switch {
	case s.Families == nil:
		b = append(b, "null"...)
	case len(s.Families) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for fi := range s.Families {
			f := &s.Families[fi]
			if fi > 0 {
				b = append(b, ',')
			}
			b = append(b, nl2+"{"+nl3+`"name": `...)
			b = appendJSONString(b, f.Name)
			if f.Help != "" {
				b = append(b, ","+nl3+`"help": `...)
				b = appendJSONString(b, f.Help)
			}
			b = append(b, ","+nl3+`"kind": `...)
			b = appendJSONString(b, f.Kind)
			b = append(b, ","+nl3+`"series": `...)
			switch {
			case f.Series == nil:
				b = append(b, "null"...)
			case len(f.Series) == 0:
				b = append(b, "[]"...)
			default:
				b = append(b, '[')
				for i := range f.Series {
					if i > 0 {
						b = append(b, ',')
					}
					b = appendSeriesJSON(b, &f.Series[i])
					if len(b) >= jsonChunk {
						if err := flush(); err != nil {
							return err
						}
					}
				}
				b = append(b, nl3+"]"...)
			}
			b = append(b, nl2+"}"...)
		}
		b = append(b, nl1+"]"...)
	}
	b = append(b, "\n}\n"...)
	return flush()
}

// appendSeriesJSON appends one series object at the snapshot's series depth.
func appendSeriesJSON(b []byte, ss *SeriesSnap) []byte {
	b = append(b, nl4+"{"...)
	if len(ss.Labels) > 0 {
		b = append(b, nl5+`"labels": [`...)
		for i, l := range ss.Labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, nl6+"{"+nl7+`"key": `...)
			b = appendJSONString(b, l.Key)
			b = append(b, ","+nl7+`"value": `...)
			b = appendJSONString(b, l.Value)
			b = append(b, nl6+"}"...)
		}
		b = append(b, nl5+"],"...)
	}
	b = append(b, nl5+`"last_ns": `...)
	b = strconv.AppendInt(b, ss.LastNs, 10)
	b = appendIntField(b, `"value": `, ss.Value)
	if ss.GaugeValue != 0 {
		b = append(b, ","+nl5+`"gauge_value": `...)
		b = appendJSONFloat(b, ss.GaugeValue)
	}
	if ss.Count != 0 {
		b = append(b, ","+nl5+`"count": `...)
		b = strconv.AppendUint(b, ss.Count, 10)
	}
	b = appendIntField(b, `"sum": `, ss.Sum)
	b = appendIntField(b, `"min": `, ss.Min)
	b = appendIntField(b, `"max": `, ss.Max)
	if len(ss.Buckets) > 0 {
		b = append(b, ","+nl5+`"buckets": [`...)
		for i, bk := range ss.Buckets {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, nl6+"{"+nl7+`"le": `...)
			b = strconv.AppendInt(b, bk.Le, 10)
			b = append(b, ","+nl7+`"n": `...)
			b = strconv.AppendUint(b, bk.N, 10)
			b = append(b, nl6+"}"...)
		}
		b = append(b, nl5+"]"...)
	}
	return append(b, nl4+"}"...)
}

// appendIntField appends an omitempty integer series field: nothing when v
// is zero.
func appendIntField(b []byte, name string, v int64) []byte {
	if v == 0 {
		return b
	}
	b = append(b, ","+nl5...)
	b = append(b, name...)
	return strconv.AppendInt(b, v, 10)
}

// appendJSONFloat formats f as encoding/json does: like strconv's shortest
// 'f' form, switching to 'e' below 1e-6 and from 1e21 up, with a one-digit
// negative exponent written e-7, not e-07. f must be finite.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s as encoding/json does with HTML escaping on:
// `"` and `\` are backslash-escaped, \b \f \n \r \t use their short forms,
// other control bytes and <, >, & become \u00XX, U+2028 and U+2029 are
// escaped, and each byte of invalid UTF-8 becomes \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
