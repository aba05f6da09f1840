package main

// Host-speed calibration. The reference host is a shared VM whose speed
// moves by a fifth within minutes: server CPU time per request and every
// latency rise and fall together, on unchanged code. While a window is
// measured, this process therefore times a small fixed kernel of the same
// kind of work the engine does (string-keyed map inserts and lookups) every
// 20 ms, and the clock-based end-to-end metrics are scaled by how the
// kernel's speed compares to a fixed reference. Over sets of ten runs the
// kernel's 25th percentile tracked p50_ms with correlation 0.94 to 0.96, and
// scaling cut the spread between runs from 8–17 % to 2–5 % (README.md,
// "Calibration"). The kernel uses about 1 % of one core. A kernel with a
// working set beyond the caches was tried and tracked worse.

import (
	"fmt"
	"time"
)

// referenceKernelUS is the kernel's 25th-percentile time on the reference
// host on a good day. Only ratios to it matter: another host scales every
// run by the same constant.
const referenceKernelUS = 225.0

var kernelKeys = func() []string {
	keys := make([]string, 3000)
	for i := range keys {
		keys[i] = fmt.Sprintf("<city_%d> <t_line%d> <city_%d>", i, i%16, i+1)
	}
	return keys
}()

func kernel() int {
	m := make(map[string]int, 16)
	for i, k := range kernelKeys {
		m[k] = i
	}
	n := 0
	for _, k := range kernelKeys {
		n += m[k]
	}
	return n
}

// calibrate times the kernel every 20 ms until the returned function is
// called, which stops it and gives the host's slowness during that time: the
// kernel's 25th percentile, which preemption by the busy server does not
// reach, over the reference. 1.1 means the host ran a tenth slower.
func calibrate() (slowness func() float64) {
	stop, done := make(chan struct{}), make(chan []float64)
	go func() {
		var us []float64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- us
				return
			case <-tick.C:
				t0 := time.Now()
				kernel()
				us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
			}
		}
	}()
	return func() float64 {
		close(stop)
		us := <-done
		if len(us) == 0 { // a window shorter than one tick
			t0 := time.Now()
			kernel()
			us = []float64{float64(time.Since(t0)) / float64(time.Microsecond)}
		}
		return quantile(us, 0.25) / referenceKernelUS
	}
}
