package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// rssSampler records the process's peak resident set over the timed
// window. Heap left over from set-up is returned to the OS before the
// window opens, so the figure is what serving the workload needs, not what
// priming or building inputs left behind.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

const rssEvery = 5 * time.Millisecond

func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := residentBytes()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, residentBytes()) / (1 << 20)
				return
			case <-t.C:
				peak = max(peak, residentBytes())
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the peak in MB.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	return <-s.done
}

var pageSize = float64(os.Getpagesize())

// residentBytes reads the resident set size from /proc/self/statm.
func residentBytes() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0
	}
	return pages * pageSize
}
