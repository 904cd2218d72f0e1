package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

const heapMetric = "/memory/classes/heap/objects:bytes"

// heapPeak samples the Go heap on its own goroutine while a phase runs. It
// is used only in untimed iterations, so the sampler cannot inflate a
// timed figure.
type heapPeak struct {
	base uint64
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func heapBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapPeak collects garbage, takes the heap level as the phase's
// base and starts sampling. The second collection empties the sync.Pool
// victim caches, so buffers pooled by an earlier phase neither count in
// the base nor spare the phase its own allocations.
func startHeapPeak() *heapPeak {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: heapMetric}}
	h := &heapPeak{base: heapBytes(s), stop: make(chan struct{}), done: make(chan struct{})}
	h.peak = h.base
	go func() {
		defer close(h.done)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, heapBytes(s))
			select {
			case <-h.stop:
				h.peak = max(h.peak, heapBytes(s))
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap above the base.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak - h.base)
}
