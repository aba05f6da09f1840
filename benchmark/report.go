package main

// The full run for people: every workload end to end, then traced, printed
// as two tables and optionally appended to a file that `compare` reads.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// stamp says what produced a result and on what.
type stamp struct {
	Time       string   `json:"time"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPU        string   `json:"cpu"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       int64    `json:"seed"`
	WindowS    float64  `json:"window_s"`
	Setups     int      `json:"setups_per_run"`
	WarmUp     int      `json:"warm_up_requests_per_client"`
	Clients    int      `json:"clients"`
	TriqdFlags []string `json:"triqd_flags"`
}

func newStamp(in *inputs, cfg config) stamp {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if _, rest, ok := strings.Cut(string(raw), "model name"); ok {
			line, _, _ := strings.Cut(rest, "\n")
			cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), ":"))
		}
	}
	return stamp{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: cpu, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: in.seed, WindowS: cfg.window.Seconds(), Setups: cfg.setups, WarmUp: cfg.warm, Clients: clients,
		TriqdFlags: append([]string{"-addr", "-data", "-trace-seed", "write mix adds:", "-wal-dir"}, durableFlags...),
	}
}

// fullRun is one entry of a results file: workload → metric → value, with
// the end-to-end and the per-layer metrics of a workload side by side.
type fullRun struct {
	Stamp     stamp                         `json:"stamp"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// printInfo shows a run's ungated extras: sample counts, p99, shares.
func printInfo(w io.Writer, name string, o *outcome) {
	keys := make([]string, 0, len(o.info))
	for k := range o.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s: attempted %d, failed %d;", name, o.Attempted, o.Failed)
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%.4g", k, o.info[k])
	}
	fmt.Fprintln(w)
}

func printTable(w io.Writer, title string, decls []decl, cols []string, runs map[string]*outcome) {
	fmt.Fprintf(w, "\n%s\n%-30s %-6s", title, "metric", "unit")
	for _, c := range cols {
		fmt.Fprintf(w, " %18s", c)
	}
	fmt.Fprintln(w)
	for _, d := range decls {
		fmt.Fprintf(w, "%-30s %-6s", d.Name, d.Unit)
		for _, c := range cols {
			fmt.Fprintf(w, " %18.6g", runs[c].Metrics[d.Name].Value)
		}
		fmt.Fprintln(w)
	}
}

// single runs this program again for one workload and one mode and decodes
// the result line. The child's stderr is passed on, without its stamp. A
// child outlives a signal to this process by the rest of its run, and then
// stops its own triqd and removes its own files.
func single(args []string) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, runErr := cmd.Output()
	for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
		if !strings.HasPrefix(line, "stamp ") {
			fmt.Println(line)
		}
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		return nil, fmt.Errorf("run %v printed no result: %v", args, runErr)
	}
	return &o, nil
}

// runAll measures every workload both ways and prints every metric by name
// with its unit. It returns non-zero on any wrong answer or invalid run.
func runAll(args []string, st stamp, out string) int {
	head, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", head)
	run := fullRun{Stamp: st, Workloads: map[string]map[string]float64{}}
	e2e, traced := map[string]*outcome{}, map[string]*outcome{}
	var cols []string
	code := 0
	for _, w := range workloads {
		cols = append(cols, w.name)
		run.Workloads[w.name] = map[string]float64{}
		for mode, into := range []map[string]*outcome{e2e, traced} {
			o, err := single(append(args, "-workload", w.name, "-trace", fmt.Sprint(mode)))
			if err != nil {
				fmt.Fprintln(os.Stderr, "triqbench:", err)
				return 1
			}
			if !o.Correct {
				code = 1
			}
			for name, m := range o.Metrics {
				run.Workloads[w.name][name] = m.Value
			}
			into[w.name] = o
		}
	}
	printTable(os.Stdout, "end to end (child triqd over loopback HTTP)", endToEnd, cols, e2e)
	printTable(os.Stdout, "per layer (in-process staged replay)", perLayer, cols, traced)
	if out != "" {
		if err := appendRun(out, run); err != nil {
			fmt.Fprintln(os.Stderr, "triqbench:", err)
			return 1
		}
	}
	return code
}

// readRuns loads a results file; a missing file is an empty one.
func readRuns(path string) ([]fullRun, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var runs []fullRun
	if err := json.Unmarshal(raw, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

func appendRun(path string, run fullRun) error {
	runs, err := readRuns(path)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(append(runs, run), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
