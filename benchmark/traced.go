package main

// The traced run: one workload replayed in this process, on one goroutine,
// stage by stage with spans around each call in layers.go, plus a short
// end-to-end probe for the one number only a child triqd can give. It fills
// the per-layer ledger and checks that the ledger closes its books.
//
// Every run measures every layer on the workload's own graph. A layer that
// is not on the workload's request path is recorded with parent "ref": the
// other request language's front end runs on its fixed reference request,
// the materializer holds the transport program, and the write path commits
// the write mix's batches to stores seeded with this graph.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Shares of --seconds that the parts of the traced run may use.
const (
	readShare  = 0.40
	writeShare = 0.35
	probeShare = 0.10
)

// ref is the parent of a span that is measured for the ledger but is not on
// this workload's request path.
const ref = "ref"

// checkpointEvery is triqd's -checkpoint-every in the write mix (durableFlags).
const checkpointEvery = 16

// The books. A traced run fails when the stages of a request miss the facade
// call by more than booksTolerance of it, or when the workload is not bound
// by the layer its rationale names. The limits sit below what is observed
// (README.md, "Closing the books"), so that host noise on the ten to forty
// replayed requests does not fail a run.
const (
	booksTolerance = 0.25
	minEvalShare   = 0.85
	minCopyShare   = 0.50
	minHitRate     = 0.95
)

// recoveryRecords is how many commits the recovered WAL holds.
const recoveryRecords = 8

type tracedRun struct {
	w   *workload
	in  *inputs
	cfg config
	l   *layers
	tr  *tracer
	o   *outcome
	v   map[string]float64 // the ledger

	stats      evalStats
	untraced   []float64 // µs of the root call with nothing recorded around it
	hits, asks int       // materializer serves
	commits    int
	selfInsert []float64 // µs of a sync-always commit outside maintenance
	diskBytes  []float64
	walBytes   float64
	userBytes  float64
}

func runTraced(w *workload, in *inputs, cfg config) (*outcome, error) {
	dir := filepath.Join(cfg.tmp, w.name+"-traced")
	defer os.RemoveAll(dir)
	l, err := newLayers(w, in, dir)
	if l != nil {
		defer l.close()
	}
	if err != nil {
		return nil, err
	}
	r := &tracedRun{w: w, in: in, cfg: cfg, l: l, tr: newTracer(),
		o: &outcome{info: map[string]float64{}}, v: map[string]float64{}}
	steps := []func() error{r.builds, r.reads, r.writes, r.recovery, r.probe, r.ledger}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
	}
	if err := r.tr.write(filepath.Join(cfg.out, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	r.o.Correct = r.o.Failed == 0
	var missing []string
	if r.o.Metrics, missing = report(perLayer, r.v); len(missing) > 0 {
		return nil, fmt.Errorf("%s traced: no value for %v", w.name, missing)
	}
	return r.o, nil
}

func (r *tracedRun) quick() bool { return !r.cfg.guarded }

func (r *tracedRun) budget(share float64) time.Time {
	return time.Now().Add(time.Duration(share * float64(r.cfg.window)))
}

// verify counts one checked answer.
func (r *tracedRun) verify(what string, rows []string, want digest) error {
	r.o.Attempted++
	if got := digestOf(rows); got != want {
		r.o.Failed++
		return fmt.Errorf("%s: %d rows (hash %x), want %d (hash %x)", what, got.n, got.sum, want.n, want.sum)
	}
	return nil
}

// transport is the oracle for the transport program over this workload's
// graph: U has no route, so nothing is reachable there.
func (r *tracedRun) transport(spur int) digest {
	switch {
	case !r.w.route:
		return digest{}
	case spur < 0:
		return r.in.closure
	default:
		return r.in.closureWithSpur(spur)
	}
}

// builds measures cold materialization builds of the transport program and
// leaves the materializer warm for everything after.
func (r *tracedRun) builds() error {
	n := 3
	if r.quick() {
		n = 1
	}
	for i := 0; i < n; i++ {
		r.l.resetMat()
		if err := r.l.loadDB(); err != nil {
			return err
		}
		var st evalStats
		err := r.tr.span("mat.build", -1-i, ref, func() (err error) { st, err = r.l.eval(true); return })
		if err != nil {
			return err
		}
		if st.path != "materialized-build" {
			return fmt.Errorf("mat.build: evaluation took path %q", st.path)
		}
	}
	return nil
}

// reads replays the workload's read request: the handler, then the facade
// call it makes, then that call's stages one by one, then the handler again
// with nothing recorded.
func (r *tracedRun) reads() error {
	sparql, served := r.w.sparql != nil, r.w.durable
	on := func(onPath bool, parent string) string {
		if onPath {
			return parent
		}
		return ref
	}
	stages := []struct {
		name, parent string
		allocs       bool
		f            func() error
	}{
		{"sparql.parse", on(sparql, "serve.request"), false, r.l.parseSPARQL},
		{"datalog.parse", on(!sparql, "serve.request"), false, r.l.parseDatalog},
		{"triq.validate", on(!sparql, "serve.request"), false, r.l.validate},
		{"translate.translate", on(sparql, "facade.ask"), false, r.l.translate},
		{"translate.load_db", on(!served, "facade.ask"), true, r.l.loadDB},
		{"chase.instance_add", ref, false, r.l.addAll},
		{"chase.instance_clone", on(!served, "triq.eval"), false, r.l.cloneInstance},
		{"triq.eval", on(!served, "facade.ask"), true, func() error {
			st, err := r.l.eval(false)
			if err == nil && r.stats != (evalStats{}) && st != r.stats {
				err = fmt.Errorf("chase counts differ between identical requests: %+v then %+v", r.stats, st)
			}
			r.stats = st
			return err
		}},
		{"mat.serve", on(served, "facade.ask"), false, func() error {
			r.matServe(-1)
			return nil
		}},
	}
	want := r.w.expect(r.in, 1) // the stores are at their bootstrap epoch
	deadline := r.budget(readShare)
	for req := 0; req < 3 || !r.quick() && time.Now().Before(deadline); req++ {
		var rows []string
		var render func() []string
		var size int
		err := r.tr.span("serve.request", req, "", func() (err error) { rows, size, err = r.l.serveRequest(); return })
		if err == nil {
			err = r.verify("handler", rows, want)
		}
		if err == nil {
			err = r.tr.measured("facade.ask", req, "serve.request", func() (err error) { render, err = r.l.facadeAsk(served); return })
		}
		if err == nil {
			err = r.verify("facade", render(), want)
		}
		if err != nil {
			return err
		}
		r.v["serve.response_bytes"] = float64(size)
		for _, s := range stages {
			record := r.tr.span
			if s.allocs {
				record = r.tr.measured
			}
			if err := record(s.name, req, s.parent, s.f); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		t0 := time.Now()
		if _, _, err := r.l.serveRequest(); err != nil {
			return err
		}
		r.untraced = append(r.untraced, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return nil
}

// matServe reads the materialization directly and scores a hit when it
// answers with as many rows as the oracle has.
func (r *tracedRun) matServe(spur int) {
	rows, hit := r.l.matServe()
	r.asks++
	if hit && rows == r.transport(spur).n {
		r.hits++
	}
}

// commitPair inserts and then deletes batch k on every store, with spans.
func (r *tracedRun) commitPair(k int, checkpoints bool) error {
	text := r.in.batch(k)
	for _, insert := range []bool{true, false} {
		req := 1_000_000 + r.commits
		r.commits++
		spur := -1
		if insert {
			spur = k
		}
		var batch triples
		err := r.tr.span("rdf.parse_ntriples", req, "store.insert", func() (err error) { batch, err = parseBatch(text); return })
		if err != nil {
			return err
		}
		r.tr.span("rdf.graph_clone", req, "store.insert", r.l.cloneGraph)

		// The store's commit hook runs inside the commit: its span nests in
		// the commit's span in time as well as in the tree.
		maintain := 0.0
		r.l.maintained = func(insert bool, run func()) {
			name := "mat.maintain_delete"
			if insert {
				name = "mat.maintain_insert"
			}
			r.tr.span(name, req, "store.insert", func() error { run(); return nil })
			maintain = r.tr.last(name)
		}
		disk0, _ := diskWriteBytes()
		err = r.tr.span("store.insert", req, "", func() error { _, err := commit(r.l.always, insert, batch); return err })
		disk1, _ := diskWriteBytes()
		r.l.maintained = nil
		if err != nil {
			return err
		}
		r.selfInsert = append(r.selfInsert, r.tr.last("store.insert")-maintain)
		r.diskBytes = append(r.diskBytes, disk1-disk0)

		// The maintained materialization must answer at the new epoch, with
		// the oracle's rows.
		r.tr.span("mat.serve", req, ref, func() error { r.matServe(spur); return nil })
		render, err := r.l.askTransport(true)
		if err == nil {
			err = r.verify(fmt.Sprintf("read after commit %d", r.commits), render(), r.transport(spur))
		}
		if err != nil {
			return err
		}

		var epoch uint64
		if err := r.tr.span("store.insert_nosync", req, ref, func() (err error) { epoch, err = commit(r.l.nosync, insert, batch); return }); err != nil {
			return err
		}
		if err := r.tr.span("repl.visible_lag", req, "store.insert_nosync", func() error { return r.l.awaitFollower(epoch) }); err != nil {
			return err
		}
		rec := record(insert, epoch, text)
		if err := r.tr.span("store.apply_replicated", req, ref, func() error { return r.l.applyReplicated(rec) }); err != nil {
			return err
		}
		r.walBytes += float64(encodedLen(rec))
		r.userBytes += float64(len(text))

		// Every 16th commit checkpoints, as in the write mix; a quick run
		// takes its one checkpoint early.
		if checkpoints && (r.commits%checkpointEvery == 0 || r.quick() && r.commits == 2) {
			var size int64
			if err := r.tr.span("store.checkpoint", req, "", func() (err error) { size, err = r.l.checkpoint(); return }); err != nil {
				return err
			}
			r.v["store.snapshot_bytes"] = float64(size)
		}
	}
	return nil
}

// writes replays the write mix's commits against this workload's graph.
func (r *tracedRun) writes() error {
	deadline := r.budget(writeShare)
	for k := 0; k < 2 || !r.quick() && (time.Now().Before(deadline) || r.commits < checkpointEvery); k++ {
		if err := r.commitPair(k, true); err != nil {
			return err
		}
	}
	return nil
}

// recovery checkpoints, commits a fixed number of batches, and then reopens
// the store three times: each reopen replays the same WAL records.
func (r *tracedRun) recovery() error {
	if _, err := r.l.checkpoint(); err != nil {
		return err
	}
	first := r.commits
	for k := first; r.commits < first+recoveryRecords; k++ {
		if err := r.commitPair(k, false); err != nil {
			return err
		}
	}
	var ms []float64
	for i := 0; i < 3; i++ {
		elapsed, records, err := r.l.reopen()
		if err != nil {
			return err
		}
		if records != recoveryRecords {
			return fmt.Errorf("recovery replayed %d records, want %d", records, recoveryRecords)
		}
		ms = append(ms, float64(elapsed)/float64(time.Millisecond))
	}
	r.v["store.recovery_ms"] = median(ms)
	r.v["store.recovery_records"] = recoveryRecords
	return nil
}

// probe runs the workload end to end for a moment, for the load generator's
// share of the CPU.
func (r *tracedRun) probe() error {
	s, _, err := setUp(r.w, r.in, r.cfg.bin, filepath.Join(r.cfg.tmp, r.w.name+"-probe"), r.cfg.warm)
	if err != nil {
		return err
	}
	defer s.close()
	d := max(time.Duration(probeShare*float64(r.cfg.window)), 500*time.Millisecond)
	m, err := measure(s, func() tally { return s.load(everyone, 0, d) })
	if err != nil {
		return err
	}
	r.o.Attempted += m.attempted
	r.o.Failed += m.failed
	if m.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: probe: first failure: %v\n", r.w.name, m.firstErr)
	}
	r.v["bench.loadgen_cpu_share"] = m.loadgenShare()
	return nil
}

// ledger turns the spans into the per-layer metrics and checks the books.
func (r *tracedRun) ledger() error {
	tr, v, st := r.tr, r.v, r.stats
	for _, name := range []string{
		"serve.request", "facade.ask", "sparql.parse", "datalog.parse", "triq.validate",
		"translate.translate", "translate.load_db", "chase.instance_clone", "triq.eval",
		"mat.build", "mat.serve", "mat.maintain_insert", "mat.maintain_delete",
		"rdf.graph_clone", "rdf.parse_ntriples", "store.insert_nosync", "store.checkpoint",
		"store.apply_replicated", "repl.visible_lag",
	} {
		v[name+"_us"] = tr.us(name)
	}

	// Self time: a span minus the children it has on this request path.
	front := v["datalog.parse_us"] + v["triq.validate_us"]
	stages := v["translate.load_db_us"] + v["triq.eval_us"]
	if r.w.sparql != nil {
		front = v["sparql.parse_us"]
		stages += v["translate.translate_us"]
	}
	if r.w.durable {
		stages = v["mat.serve_us"]
	}
	v["serve.self_us"] = v["serve.request_us"] - front - v["facade.ask_us"]
	v["facade.self_us"] = v["facade.ask_us"] - stages
	v["facade.allocs_per_op"] = median(tr.mallocs["facade.ask"])
	v["facade.alloc_kb_per_op"] = median(tr.kb["facade.ask"])

	v["translate.rules"] = float64(r.l.rules())
	v["translate.load_db_allocs"] = median(tr.mallocs["translate.load_db"])
	v["chase.instance_add_ns"] = tr.us("chase.instance_add") * 1000 / float64(r.l.facts())
	v["triq.eval_allocs"] = median(tr.mallocs["triq.eval"])
	v["chase.eval_ns_per_fact"] = v["triq.eval_us"] * 1000 / float64(st.derived)
	v["chase.rounds"] = float64(st.rounds)
	v["chase.triggers_attempted"] = float64(st.attempted)
	v["chase.triggers_fired"] = float64(st.fired)
	v["chase.facts_derived"] = float64(st.derived)
	v["chase.nulls_invented"] = float64(st.nulls)
	v["chase.fired_per_attempted"] = float64(st.fired) / float64(st.attempted)

	v["mat.hit_rate"] = float64(r.hits) / float64(r.asks)
	v["store.insert_us"] = median(r.selfInsert)
	v["store.sync_cost_us"] = v["store.insert_us"] - v["store.insert_nosync_us"]
	v["store.wal_bytes_per_user_byte"] = r.walBytes / r.userBytes
	v["store.disk_kb_per_batch"] = median(r.diskBytes) / 1024
	v["bench.trace_overhead_pct"] = (v["serve.request_us"] - median(r.untraced)) / median(r.untraced) * 100

	copyShare := (v["translate.load_db_us"] + v["chase.instance_clone_us"]) / v["facade.ask_us"]
	evalShare := v["triq.eval_us"] / v["facade.ask_us"]
	booksGap := v["facade.self_us"] / v["facade.ask_us"]
	if !r.w.durable { // a served read neither loads nor evaluates
		r.o.info["eval_share"], r.o.info["copy_share"], r.o.info["books_gap"] = evalShare, copyShare, booksGap
	}
	r.o.info["traced_reads"], r.o.info["traced_commits"] = float64(len(r.untraced)), float64(r.commits)
	if r.quick() {
		return nil
	}

	// The books: on a workload that evaluates, the stages account for the
	// facade call; and the workload is bound by the layer its rationale names.
	if !r.w.durable && (booksGap > booksTolerance || booksGap < -booksTolerance) {
		return fmt.Errorf("the stage spans miss facade.ask_us by %.0f%%", booksGap*100)
	}
	switch r.w.dominant {
	case "eval":
		if evalShare < minEvalShare {
			return fmt.Errorf("triq.eval_us is %.0f%% of facade.ask_us; the workload is meant to be derivation-bound", evalShare*100)
		}
	case "copy":
		if copyShare < minCopyShare || st.derived > 20 {
			return fmt.Errorf("loading and copying the graph is %.0f%% of facade.ask_us with %d derived facts; the workload is meant to be copy-bound",
				copyShare*100, st.derived)
		}
	case "mat":
		if v["mat.hit_rate"] < minHitRate {
			return fmt.Errorf("mat.hit_rate is %.2f; reads are meant to be served from the materialization", v["mat.hit_rate"])
		}
	}
	return nil
}
