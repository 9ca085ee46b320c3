package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive values (0 if any is not).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// heapSampler polls the live heap while a timed phase runs and keeps
// the peak. runtime/metrics reads are cheap and do not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampling goroutine until done closes
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// goAllocs reads the process-wide count of heap objects allocated so far.
func goAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
