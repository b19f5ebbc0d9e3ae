package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// span is one benchmark-side span around a call into a layer. Parent is the
// index of the enclosing span, -1 at the top; every span of one run or job
// shares its top span's Root.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Root    int    `json:"root"`
}

// spanLog keeps the traced run's spans in memory until the benchmark exits.
// A nil *spanLog records nothing, which is how untraced runs call it.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	root := len(l.spans)
	if parent >= 0 {
		root = l.spans[parent].Root
	}
	l.spans = append(l.spans, span{Name: name, StartNs: now, Parent: parent, Root: root})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id].EndNs = now
	l.mu.Unlock()
}

func (l *spanLog) writeJSON(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return json.NewEncoder(w).Encode(l.spans)
}
