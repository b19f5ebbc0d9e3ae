package main

import (
	"runtime/metrics"
	"time"
)

// goSample is a reading of the Go runtime's cumulative counters.
type goSample struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64 // CPU seconds
}

var goSampleNames = []string{
	"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readGo() goSample {
	ms := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	v := func(i int) float64 {
		switch ms[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ms[i].Value.Uint64())
		case metrics.KindFloat64:
			return ms[i].Value.Float64()
		}
		return 0
	}
	return goSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a goSample) sub(b goSample) goSample {
	return goSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// heapSampler tracks the high-water mark of heap memory the Go runtime
// holds from the OS (heap spans in use or idle, minus what it released),
// optionally per window of a fixed length.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []uint64 // one per window; the last is the open window
}

// heapMapped is the heap memory currently obtained from the OS and not
// returned to it.
func heapMapped() uint64 {
	ms := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
	}
	metrics.Read(ms)
	var sum uint64
	for _, s := range ms {
		if s.Value.Kind() == metrics.KindUint64 {
			sum += s.Value.Uint64()
		}
	}
	return sum
}

// startHeapSampler samples the heap every 2ms until stopped. A positive
// window starts a new peak that often. Memory is never forced back to the
// OS (that forces a collection, stalls the measured work and makes the next
// pass fault its heap in again), so a peak is the most the runtime held
// during the pass or window, as a long-running process would.
func startHeapSampler(window time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peaks: []uint64{heapMapped()}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		opened := time.Now()
		for {
			select {
			case <-h.stop:
				return
			case now := <-t.C:
				if window > 0 && now.Sub(opened) >= window {
					h.peaks = append(h.peaks, 0)
					opened = now
				}
				h.peaks[len(h.peaks)-1] = max(h.peaks[len(h.peaks)-1], heapMapped())
			}
		}
	}()
	return h
}

// finish stops the sampler and returns each window's peak in MiB.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	last := len(h.peaks) - 1
	h.peaks[last] = max(h.peaks[last], heapMapped())
	out := make([]float64, len(h.peaks))
	for i, p := range h.peaks {
		out[i] = float64(p) / (1 << 20)
	}
	return out
}
