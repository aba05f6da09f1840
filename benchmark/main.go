// Command triqbench is this repository's benchmark: five fixed workloads
// against a child triqd for the end-to-end numbers, and an in-process staged
// replay of the same requests for the per-layer ledger. Every answer is
// checked against an oracle that shares no code with the engine.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of stdout is the result JSON
//	bash benchmark/run.sh [-seed N] [-quick] [-out runs.json]
//	    every workload end to end, then traced; prints both tables
//	bash benchmark/run.sh compare A.json B.json [...]
//	    medians, quartiles and a verdict per workload × metric
//	bash benchmark/run.sh manifest
//	    BENCHMARK.json, rendered from the declared metrics and workloads
//
// run.sh builds triqbench and triqd into .bench_build/ and passes -triqd.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 && args[0] == "manifest" {
		os.Stdout.Write(manifest())
		return 0
	}
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:])
	}

	fs := flag.NewFlagSet("triqbench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and print the result line (default: all, as tables)")
	seed := fs.Int64("seed", 1, "input seed: permutes names and order, never shapes or sizes")
	seconds := fs.Float64("seconds", runSeconds, "measured window per run")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer ledger")
	bin := fs.String("triqd", filepath.Join(".bench_build", "triqd"), "triqd binary to drive")
	work := fs.String("work", ".bench_build", "directory for temporary data and traces; must be inside the checkout")
	quick := fs.Bool("quick", false, "smoke run: 1 s windows, one set-up, 3 traced requests, no validity guards")
	out := fs.String("out", "", "append this run to a JSON file that `compare` reads")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	err := os.MkdirAll(*work, 0o755)
	var tmp string
	if err == nil {
		tmp, err = os.MkdirTemp(*work, "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "triqbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	// A signal must not leave a triqd or a temp directory behind: the run is
	// torn down by its defers, which a default-action exit would skip.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.RemoveAll(tmp)
		os.Exit(130)
	}()

	cfg := config{
		bin:     *bin,
		tmp:     tmp,
		out:     filepath.Join(*work, "out"),
		window:  time.Duration(*seconds * float64(time.Second)),
		setups:  3,
		warm:    8,
		guarded: true,
	}
	if *quick {
		cfg.window, cfg.setups, cfg.warm, cfg.guarded = time.Second, 1, 2, false
	}
	in := generate(*seed)

	if *name == "" {
		// Every run of the full report is a fresh process of this program,
		// started as the driver starts it, so that a table entry is exactly
		// what a single run prints.
		child := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-triqd", *bin, "-work", *work}
		if *quick {
			child = append(child, "-quick")
		}
		return runAll(child, newStamp(in, cfg), *out)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "triqbench: unknown workload %q\n", *name)
		return 2
	}
	head, _ := json.Marshal(newStamp(in, cfg))
	fmt.Fprintf(os.Stderr, "stamp %s\n", head)
	var o *outcome
	if *trace == 0 {
		o, err = runEndToEnd(w, in, cfg)
	} else {
		o, err = runTraced(w, in, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "triqbench:", err)
		return 1
	}
	printInfo(os.Stderr, w.name, o)
	line, _ := json.Marshal(o)
	fmt.Println(string(line))
	if !o.Correct {
		return 1
	}
	return 0
}
