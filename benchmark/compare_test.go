package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := decl{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := decl{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		d    decl
		b    []float64
		want string
	}{
		{"same", lower, []float64{100, 100, 101, 99, 101}, "unchanged"},
		{"slower beyond the bound", lower, []float64{120, 121, 119, 122, 120}, "regressed"},
		{"slower within the bound", lower, []float64{105, 106, 104, 105, 107}, "unchanged"},
		{"faster, sides apart", lower, []float64{80, 81, 79, 80, 82}, "improved"},
		{"fewer ops beyond the bound", higher, []float64{80, 81, 79, 80, 82}, "regressed"},
		{"more ops, sides apart", higher, []float64{120, 121, 119, 122, 120}, "improved"},
		{"more ops, sides overlapping", higher, []float64{101, 108, 109, 110, 111}, "unchanged"},
		{"faster, sides overlapping", lower, []float64{99, 92, 91, 90, 89}, "unchanged"},
		{"faster, too few runs to tell", lower, []float64{80, 81, 79}, "unchanged"},
		{"spread wider than the bound", lower, []float64{80, 130, 95, 120, 70}, "unresolved"},
	} {
		if got := verdict(c.d, base, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
