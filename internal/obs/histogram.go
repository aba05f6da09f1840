package obs

import (
	"math"
	"sync/atomic"
)

// The histogram layer replaces an earlier bounded-reservoir design with
// fixed log-spaced buckets: observation values land in 1-2-5 buckets per
// decade from 1 up to 1e12 (enough for twelve decades of microseconds —
// about eleven days — or of fact counts), plus an overflow bucket. Memory
// per histogram is therefore constant and Observe is lock-free: bucket
// counts are atomic adds and sum/max are CAS loops over float bits, so the
// chase hot loop can record per-round timings without serializing requests.
//
// Quantiles interpolate linearly inside the winning bucket. On the bucket
// bounds themselves this is exact for uniform streams (p95 of 1..100 is
// exactly 95); in general the error is bounded by the 1-2-5 bucket width
// (≤ 60% of the value), which is the usual trade for constant-memory
// latency histograms and matches what the Prometheus exposition carries
// anyway.

// histBuckets is the fixed bucket count: 3 bounds per decade over 12
// decades, a final 1e12 bound, and the +Inf overflow bucket.
const histBuckets = 12*3 + 1 + 1

// bucketBounds holds the finite upper bounds (inclusive) of each bucket;
// the last bucket, at index len(bucketBounds), is (1e12, +Inf).
var bucketBounds = makeBounds()

func makeBounds() [histBuckets - 1]float64 {
	var b [histBuckets - 1]float64
	i, p := 0, 1.0
	for d := 0; d < 12; d++ {
		b[i], b[i+1], b[i+2] = p, 2*p, 5*p
		i += 3
		p *= 10
	}
	b[i] = p // 1e12
	return b
}

// BucketBounds returns the finite bucket upper bounds (a copy), smallest
// first. The overflow bucket, (last, +Inf), is implied. Exposed for the
// Prometheus exposition and for tests that assert boundary behavior.
func BucketBounds() []float64 {
	out := make([]float64, len(bucketBounds))
	copy(out, bucketBounds[:])
	return out
}

// bucketIndex maps a value to its bucket: the smallest i with
// v <= bucketBounds[i], or the overflow bucket. Values below the first
// bound (including negatives and NaN, which compare false throughout)
// land in bucket 0.
func bucketIndex(v float64) int {
	if math.IsNaN(v) {
		return 0
	}
	lo, hi := 0, len(bucketBounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= bucketBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Histogram is a fixed-memory, lock-free log-bucketed histogram. The zero
// value is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if old != 0 && math.Float64frombits(old) >= v {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Merge folds a snapshot of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	s := other.Snapshot()
	for i, n := range s.Buckets {
		if n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(s.Count)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+s.Sum)) {
			break
		}
	}
	if s.Count > 0 {
		for {
			old := h.max.Load()
			if old != 0 && math.Float64frombits(old) >= s.Max {
				break
			}
			if h.max.CompareAndSwap(old, math.Float64bits(s.Max)) {
				break
			}
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram. Under concurrent
// Observe the totals may trail the buckets by in-flight samples; quantile
// math therefore works off the bucket sums, not Count.
type HistSnapshot struct {
	Count   int64
	Sum     float64
	Max     float64
	Buckets [histBuckets]int64 // per-bucket counts, not cumulative
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sum.Load())
	s.Max = math.Float64frombits(h.max.Load())
	return s
}

// Quantile reads the q-th quantile (0 ≤ q ≤ 1) with linear interpolation
// inside the winning bucket. The overflow bucket reports the observed max.
func (s HistSnapshot) Quantile(q float64) float64 {
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	if target > float64(total) {
		target = float64(total)
	}
	var cum int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) < target {
			cum += n
			continue
		}
		if i >= len(bucketBounds) {
			return s.Max // overflow bucket: best available point estimate
		}
		lo := 0.0
		if i > 0 {
			lo = bucketBounds[i-1]
		}
		hi := bucketBounds[i]
		v := lo + (target-float64(cum))/float64(n)*(hi-lo)
		if s.Max != 0 && v > s.Max {
			v = s.Max
		}
		return v
	}
	return s.Max
}

// Stats summarizes the snapshot with the registry's standard percentiles.
func (s HistSnapshot) Stats() HistStats {
	return HistStats{
		Count: s.Count,
		Sum:   s.Sum,
		Max:   s.Max,
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
	}
}
