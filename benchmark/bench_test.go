package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(manifest()) {
		t.Error("BENCHMARK.json is not the output of `triqbench manifest`; regenerate it")
	}
}

func TestDeclaredNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(s string) {
		if !name.MatchString(s) || seen[s] {
			t.Errorf("name %q is malformed or used twice", s)
		}
		seen[s] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		hasSetup = hasSetup || d == decl{"setup_s", "s", "lower", d.Bound}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
	}
	if !hasSetup || len(perLayer) != 45 {
		t.Errorf("setup_s declared: %v; per-layer metrics: %d, want 45", hasSetup, len(perLayer))
	}
}

// TestQuickRun drives every workload both ways against a real triqd with
// short windows. It asserts answers and metric names only, never a time: each
// response is checked against its oracle, and a run reports exactly the
// declared metrics or fails.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs triqd")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "triqd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/triqd").CombinedOutput(); err != nil {
		t.Fatalf("build triqd: %v\n%s", err, out)
	}
	cfg := config{bin: bin, tmp: tmp, out: filepath.Join(tmp, "out"), window: 300 * time.Millisecond, setups: 1, warm: 2}
	in := generate(11)
	for i := range workloads {
		w := &workloads[i]
		for mode, run := range []func(*workload, *inputs, config) (*outcome, error){runEndToEnd, runTraced} {
			want := endToEnd
			if mode == 1 {
				want = perLayer
			}
			o, err := run(w, in, cfg)
			if err != nil {
				t.Fatalf("%s mode %d: %v", w.name, mode, err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
				t.Errorf("%s mode %d: correct=%v attempted=%d failed=%d", w.name, mode, o.Correct, o.Attempted, o.Failed)
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("%s mode %d: %d metrics reported, %d declared", w.name, mode, len(o.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := o.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or in unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}
