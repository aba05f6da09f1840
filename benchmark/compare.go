package main

// compare reads results files written with -out, each holding the full runs
// of one version, and judges every workload × end-to-end metric of each later
// file against the first. Per-layer metrics are listed beside them without a
// verdict: they have no bound.

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// quartiles are the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) gives them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		i := int(math.Floor(pos))
		switch {
		case i < 0:
			return s[0]
		case i >= len(s)-1:
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// minRunsToWin is the fewest runs per side for an "improved": three runs of
// unchanged code beat three others outright one time in ten.
const minRunsToWin = 5

// verdict judges side b against side a for a metric whose bound is the share
// of a's median it may worsen by. A spread wider than the bound leaves the
// pairing unresolved unless the two sides do not overlap at all.
func verdict(d decl, a, b []float64) string {
	sign := 1.0 // make larger mean worse
	if d.Better == "higher" {
		sign = -1
	}
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	worse := sign * (bm - am) / math.Abs(am)
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	apart := minB > maxA || maxB < minA // every run of one side beats every run of the other
	spread := math.Max((a3-a1)/math.Abs(am), (b3-b1)/math.Abs(bm))
	switch {
	case spread > d.Bound && !apart:
		return "unresolved"
	case worse > d.Bound:
		return "regressed"
	case -worse*math.Abs(am) > a3-a1 && apart && len(a) >= minRunsToWin && len(b) >= minRunsToWin:
		return "improved"
	}
	return "unchanged"
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return
}

// column gathers one metric of one workload across a file's runs.
func column(runs []fullRun, workload, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Workloads[workload][name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func compare(paths []string) int {
	if len(paths) < 2 {
		fmt.Fprintln(os.Stderr, "usage: triqbench compare A.json B.json [...]")
		return 2
	}
	var sides [][]fullRun
	for _, p := range paths {
		runs, err := readRuns(p)
		if err == nil && len(runs) == 0 {
			err = fmt.Errorf("%s: no runs", p)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "triqbench:", err)
			return 1
		}
		sides = append(sides, runs)
	}
	code := 0
	all := append(append([]decl(nil), endToEnd...), perLayer...)
	for i := 1; i < len(sides); i++ {
		fmt.Printf("%s (%d runs, commit %s) against %s (%d runs, commit %s)\n",
			paths[i], len(sides[i]), sides[i][0].Stamp.Commit, paths[0], len(sides[0]), sides[0][0].Stamp.Commit)
		fmt.Printf("%-18s %-30s %12s %12s %12s | %12s %12s %12s | %8s %6s  %s\n",
			"workload", "metric", "a.q1", "a.median", "a.q3", "b.q1", "b.median", "b.q3", "delta", "bound", "verdict")
		for _, w := range workloads {
			for _, d := range all {
				a, b := column(sides[0], w.name, d.Name), column(sides[i], w.name, d.Name)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				a1, am, a3 := quartiles(a)
				b1, bm, b3 := quartiles(b)
				v, bound := "-", "-"
				if d.Bound > 0 {
					v, bound = verdict(d, a, b), fmt.Sprintf("%.0f%%", d.Bound*100)
					if v == "regressed" {
						code = 1
					}
				}
				fmt.Printf("%-18s %-30s %12.5g %12.5g %12.5g | %12.5g %12.5g %12.5g | %+7.1f%% %6s  %s\n",
					w.name, d.Name, a1, am, a3, b1, bm, b3, (bm-am)/math.Abs(am)*100, bound, v)
			}
		}
	}
	return code
}
