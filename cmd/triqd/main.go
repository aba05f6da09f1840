// Command triqd is the resilient TriQ query server: it serves TriQ
// (Datalog) and SPARQL queries over HTTP with admission control, load
// shedding, per-request deadlines, and graceful drain on SIGINT/SIGTERM —
// and, with -wal-dir, a durable live write path: POST /insert and /delete
// apply N-Triples batches atomically through an epoch-versioned copy-on-write
// store backed by a checksummed write-ahead log, recovered on boot.
// Evaluation is deterministic, so a failed one is reported, never re-run, and
// says nothing about the next request: the server sheds by cost (queue,
// deadlines, budgets), never by the history of earlier outcomes.
//
// Usage:
//
//	triqd -data graph.nt [-ontology o.owl] [-addr :8471] \
//	      [-wal-dir store/] [-wal-sync always|interval|none] \
//	      [-checkpoint-every 1024] [-max-body-bytes 8388608] \
//	      [-concurrency 4] [-queue 16] [-queue-timeout 1s] \
//	      [-default-timeout 10s] [-max-timeout 60s] [-drain-timeout 15s] \
//	      [-replica-of http://primary:8471 [-promote-on-loss] \
//	       [-promote-grace 5s] [-proxy-writes]] [-staleness-wait 2s] \
//	      [-slo-query-p99 250ms] [-slo-commit-p99 50ms] \
//	      [-slo-error-rate 0.01] [-slo-shed-rate 0.05] \
//	      [-slo-replica-lag 5s] [-slo-interval 1s] \
//	      [-slo-window-fast 30s] [-slo-window-slow 150s] \
//	      [-alert-log alerts.jsonl]
//
// The -slo-* flags arm the in-process SLO watchdog: each non-zero target
// becomes an objective evaluated with multi-window burn-rate rules over the
// server's own metrics; firing/cleared alerts are served at /debug/alerts
// (with auto-captured profiles and pinned traces attached on a breach) and
// appended to -alert-log as JSON lines.
//
// With -wal-dir the listener answers immediately and /readyz reports
// {"state":"recovering"} (503) until the snapshot and WAL have replayed;
// -data seeds the store only on first boot (an already-populated store wins).
// Without -wal-dir mutations still work against a volatile in-memory store.
//
// With -replica-of the process boots as a read replica: it tails the
// primary's WAL stream (GET /repl/stream), serves reads with epoch tokens,
// and refuses writes toward the primary (or forwards them with
// -proxy-writes). POST /repl/promote — or -promote-on-loss after
// -promote-grace of primary silence — turns it into a writable primary
// over its own recovered WAL. See the README's "Replication" section.
//
// Endpoints and the status-code contract are documented in the README
// ("Serving", "Durability & writes") and in internal/serve. A quick check
// against a running instance:
//
//	curl -s localhost:8471/readyz
//	curl -s localhost:8471/query -d '{"program":"triple(?X, partOf, ?Y) -> query(?X, ?Y)."}'
//	curl -s localhost:8471/insert -d '{"triples":"A320 partOf TheAirline .\n"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/slo"
)

// config collects the triqd flags.
type config struct {
	data     string // N-Triples seed data file
	ontology string // OWL 2 QL core ontology merged into the data
	addr     string // listen address

	walDir          string // store directory ("" = volatile in-memory store)
	walSync         string // WAL fsync policy: always, interval, none
	checkpointEvery int    // snapshot checkpoint every N batches (negative disables)
	maxBodyBytes    int64  // request body cap on every POST endpoint

	concurrency  int           // evaluation slots
	queue        int           // admission queue length
	queueTimeout time.Duration // longest queue wait before shedding

	defaultTimeout time.Duration // per-request deadline when unset
	maxTimeout     time.Duration // cap on client-requested deadlines
	drainTimeout   time.Duration // graceful-shutdown budget

	materialize bool // maintain chased materializations across epochs

	replicaOf     string        // primary base URL ("" = primary / standalone)
	promoteOnLoss bool          // self-promote after promoteGrace of primary silence
	promoteGrace  time.Duration // silence tolerance before self-promotion
	proxyWrites   bool          // forward replica-received writes to the primary
	stalenessWait time.Duration // bound on min-epoch catch-up waits

	slowlog          string        // JSONL slow-query sink file ("" = ring only)
	slowlogThreshold time.Duration // record requests at least this slow (0 = off)

	traceSample    float64       // head-sampling rate for request traces
	traceSeed      int64         // trace-id / sampler seed (0 = clock)
	noTrace        bool          // disable request tracing entirely
	profileDir     string        // slow-query auto-profile directory ("" = off)
	autoprofileCPU time.Duration // CPU profile capture duration

	sloQueryP99   time.Duration // query p99 latency target (0 = objective off)
	sloCommitP99  time.Duration // commit-visible p99 latency target
	sloErrorRate  float64       // request error-rate budget (fraction)
	sloShedRate   float64       // admission shed-rate budget (fraction)
	sloReplicaLag time.Duration // replica wall-clock lag target
	sloInterval   time.Duration // watchdog sampling cadence
	sloFast       time.Duration // fast (reactive) burn window
	sloSlow       time.Duration // slow (confirming) burn window
	alertLog      string        // JSONL alert-transition sink file

	version bool // print version and exit
}

// defineFlags declares every flag of the binary on fs; TestFlagLedger pins
// the result against testdata/flags.golden. Mechanism tunables that nothing
// sets (WAL flush cadence and size trigger, materializer caps, trace-store
// and timeline capacities, profile cooldown, health cadence) are not flags:
// they stay at the defaults of the store, mat and serve packages. -trace-seed
// is one because benchmark/ passes it.
func defineFlags(fs *flag.FlagSet) *config {
	cfg := &config{}
	fs.StringVar(&cfg.data, "data", "", "N-Triples data file (seeds the store on first boot; required without -wal-dir)")
	fs.StringVar(&cfg.ontology, "ontology", "", "OWL 2 QL core ontology file; its RDF serialization is merged into the data")
	fs.StringVar(&cfg.addr, "addr", ":8471", "listen address")
	fs.StringVar(&cfg.walDir, "wal-dir", "", "durable store directory (snapshot + write-ahead log); empty serves writes from a volatile in-memory store")
	fs.StringVar(&cfg.walSync, "wal-sync", "always", "WAL fsync policy: always (acknowledged writes survive crashes), interval, or none")
	fs.IntVar(&cfg.checkpointEvery, "checkpoint-every", 1024, "write a snapshot checkpoint and truncate the WAL every N batches (negative disables)")
	fs.Int64Var(&cfg.maxBodyBytes, "max-body-bytes", 8<<20, "request body cap on every POST endpoint; oversized bodies get 413 (negative disables)")
	fs.IntVar(&cfg.concurrency, "concurrency", 4, "concurrent evaluation slots")
	fs.IntVar(&cfg.queue, "queue", 16, "admission queue length (0 disables queueing)")
	fs.DurationVar(&cfg.queueTimeout, "queue-timeout", time.Second, "longest a request may queue before it is shed")
	fs.DurationVar(&cfg.defaultTimeout, "default-timeout", 10*time.Second, "per-request evaluation deadline when the request sets none")
	fs.DurationVar(&cfg.maxTimeout, "max-timeout", 60*time.Second, "cap on client-requested deadlines")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 15*time.Second, "graceful-shutdown budget; stragglers are canceled when it expires")
	fs.BoolVar(&cfg.materialize, "materialize", false, "maintain chased materializations incrementally across epochs and serve matching queries from them")
	fs.StringVar(&cfg.replicaOf, "replica-of", "", "boot as a read replica of this primary base URL (e.g. http://10.0.0.1:8471)")
	fs.BoolVar(&cfg.promoteOnLoss, "promote-on-loss", false, "with -replica-of: self-promote to writable primary after -promote-grace of primary silence")
	fs.DurationVar(&cfg.promoteGrace, "promote-grace", repl.DefaultPromoteGrace, "with -promote-on-loss: how long the primary may be silent before failover")
	fs.BoolVar(&cfg.proxyWrites, "proxy-writes", false, "with -replica-of: forward writes to the primary instead of refusing them with 503")
	fs.DurationVar(&cfg.stalenessWait, "staleness-wait", 2*time.Second, "longest a min-epoch read waits for the store to catch up before shedding 503")
	fs.StringVar(&cfg.slowlog, "slowlog", "", "append slow-query entries as JSON lines to this file (implies -slowlog-threshold 1s when unset)")
	fs.DurationVar(&cfg.slowlogThreshold, "slowlog-threshold", 0, "record requests whose total time meets this threshold at /debug/slowlog (0 disables unless -slowlog is set)")
	fs.Float64Var(&cfg.traceSample, "trace-sample", 0.1, "fraction of requests whose full span tree is recorded (incoming sampled traceparents always record)")
	fs.Int64Var(&cfg.traceSeed, "trace-seed", 0, "trace id / sampling seed (0 derives from the clock)")
	fs.BoolVar(&cfg.noTrace, "no-trace", false, "disable request tracing (no traceparent echo, no /debug/trace)")
	fs.StringVar(&cfg.profileDir, "profile-dir", "", "directory for slow-query auto-captured CPU/heap profiles (empty disables)")
	fs.DurationVar(&cfg.autoprofileCPU, "autoprofile-cpu", 2*time.Second, "CPU profile duration per auto-capture")
	fs.DurationVar(&cfg.sloQueryP99, "slo-query-p99", 0, "SLO: query p99 latency target; burn-rate alerts at /debug/alerts (0 disables this objective)")
	fs.DurationVar(&cfg.sloCommitP99, "slo-commit-p99", 0, "SLO: commit-visible p99 latency target (WAL append to reader-visible swap)")
	fs.Float64Var(&cfg.sloErrorRate, "slo-error-rate", 0, "SLO: request error-rate budget as a fraction, e.g. 0.01 (0 disables)")
	fs.Float64Var(&cfg.sloShedRate, "slo-shed-rate", 0, "SLO: admission shed-rate budget as a fraction (0 disables)")
	fs.DurationVar(&cfg.sloReplicaLag, "slo-replica-lag", 0, "SLO: replica wall-clock staleness target behind the primary (0 disables)")
	fs.DurationVar(&cfg.sloInterval, "slo-interval", time.Second, "SLO: watchdog sampling cadence")
	fs.DurationVar(&cfg.sloFast, "slo-window-fast", 30*time.Second, "SLO: fast burn window (reacts and clears)")
	fs.DurationVar(&cfg.sloSlow, "slo-window-slow", 0, "SLO: slow burn window confirming a sustained burn (0 = 5× fast)")
	fs.StringVar(&cfg.alertLog, "alert-log", "", "append SLO alert transitions as JSON lines to this file")
	fs.BoolVar(&cfg.version, "version", false, "print version and exit")
	return cfg
}

func main() {
	cfg := defineFlags(flag.CommandLine)
	flag.Parse()
	if cfg.version {
		fmt.Println(obs.VersionString("triqd"))
		os.Exit(0)
	}
	os.Exit(realMain(*cfg))
}

func realMain(cfg config) int {
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "triqd:", err)
		return 1
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(context.Background(), cfg, ln, stop); err != nil {
		fmt.Fprintln(os.Stderr, "triqd:", err)
		return 1
	}
	return 0
}

// run serves until the context dies, a signal arrives, or the listener
// fails; then it drains gracefully. Tests drive it directly with a loopback
// listener and a fake signal channel.
func run(ctx context.Context, cfg config, ln net.Listener, stop <-chan os.Signal) error {
	if cfg.data == "" && cfg.walDir == "" && cfg.replicaOf == "" {
		ln.Close()
		return errors.New("-data, -wal-dir, or -replica-of is required")
	}
	if cfg.replicaOf == "" && (cfg.promoteOnLoss || cfg.proxyWrites) {
		ln.Close()
		return errors.New("-promote-on-loss and -proxy-writes require -replica-of")
	}
	syncPolicy, err := repro.ParseSyncPolicy(cfg.walSync)
	if err != nil {
		ln.Close()
		return err
	}
	queue := cfg.queue
	if queue == 0 {
		queue = -1 // AdmissionConfig semantics: negative disables queueing
	}
	slowCfg := serve.SlowLogConfig{Threshold: cfg.slowlogThreshold}
	if cfg.slowlog != "" {
		if slowCfg.Threshold <= 0 {
			slowCfg.Threshold = time.Second
		}
		f, err := os.OpenFile(cfg.slowlog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			ln.Close()
			return err
		}
		defer f.Close()
		slowCfg.Sink = f
	}
	if cfg.profileDir != "" {
		if err := os.MkdirAll(cfg.profileDir, 0o755); err != nil {
			ln.Close()
			return err
		}
	}
	o := obs.New()
	// The materializer's chase bounds must match the ones serve's evaluate
	// uses for ordinary requests (it declines to serve under mismatched
	// bounds), so both are left at the chase defaults.
	var m *mat.Materializer
	if cfg.materialize {
		m = mat.New(mat.Config{Obs: o})
	}
	srv := serve.New(serve.Config{
		Admission: serve.AdmissionConfig{
			MaxConcurrent: cfg.concurrency,
			MaxQueue:      queue,
			QueueTimeout:  cfg.queueTimeout,
		},
		DefaultTimeout: cfg.defaultTimeout,
		MaxTimeout:     cfg.maxTimeout,
		Obs:            o,
		SlowLog:        slowCfg,
		Trace: serve.TraceConfig{
			Sample:  cfg.traceSample,
			Seed:    cfg.traceSeed,
			Disable: cfg.noTrace,
		},
		AutoProfile: serve.AutoProfileConfig{
			Dir:         cfg.profileDir,
			CPUDuration: cfg.autoprofileCPU,
		},
		MaxBodyBytes:  cfg.maxBodyBytes,
		StalenessWait: cfg.stalenessWait,
		ProxyWrites:   cfg.proxyWrites,
		Mat:           m,
	})

	// The listener answers immediately — /readyz reports 503
	// {"state":"recovering"} while the snapshot and WAL replay — so a rolling
	// deploy can health-check the process without routing traffic early.
	srv.SetRecovering(true)
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "triqd: listening on %s, recovering store\n", ln.Addr())

	st, err := openStore(cfg, syncPolicy, m, o)
	if err != nil {
		hs.Close()
		<-serveErr
		return err
	}
	if m != nil {
		// Pin the materializer to the recovered (or freshly seeded) epoch;
		// from here every commit flows through OnCommit and keeps it exact.
		m.Reset(st.Current().Seq)
		fmt.Fprintf(os.Stderr, "triqd: incremental materialization enabled at epoch %d\n", st.Current().Seq)
	}
	srv.SetStore(st)

	// Replica mode: install the replication handle before readiness flips so
	// /readyz never reports plain "ready" on an unpromoted replica, then
	// start tailing the primary.
	var rep *repl.Replica
	if cfg.replicaOf != "" {
		rep = repl.New(repl.Config{
			Primary:       cfg.replicaOf,
			Store:         st,
			Obs:           o,
			PromoteOnLoss: cfg.promoteOnLoss,
			PromoteGrace:  cfg.promoteGrace,
			// Replica-apply spans land in the same store /debug/trace serves,
			// so a sampled mutation's distributed trace is inspectable here.
			Traces:    srv.TraceStore(),
			TraceSeed: cfg.traceSeed,
		})
		srv.SetReplica(rep)
		rep.Start(ctx)
		fmt.Fprintf(os.Stderr, "triqd: replica of %s (epoch %d at boot)\n",
			cfg.replicaOf, st.Current().Seq)
	}
	// The SLO watchdog samples the server's own registry on a cadence and
	// serves burn-rate alerts at /debug/alerts; a breach captures profiles
	// and pins the implicated traces via the server's OnSLOBreach hook.
	objectives := slo.DefaultObjectives(
		float64(cfg.sloQueryP99.Microseconds()),
		float64(cfg.sloCommitP99.Microseconds()),
		cfg.sloErrorRate,
		cfg.sloShedRate,
		cfg.sloReplicaLag.Seconds(),
	)
	var watch *slo.Watchdog
	if len(objectives) > 0 {
		watch, err = slo.New(slo.Config{
			Objectives: objectives,
			Interval:   cfg.sloInterval,
			FastWindow: cfg.sloFast,
			SlowWindow: cfg.sloSlow,
			Source:     srv.MetricsRegistry,
			OnBreach:   srv.OnSLOBreach,
			LogPath:    cfg.alertLog,
			Obs:        o,
		})
		if err != nil {
			if rep != nil {
				rep.Stop()
			}
			st.Close()
			hs.Close()
			<-serveErr
			return err
		}
		srv.SetSLO(watch)
		watch.Start()
		defer watch.Stop()
		slow := cfg.sloSlow
		if slow <= 0 {
			slow = 5 * cfg.sloFast
		}
		fmt.Fprintf(os.Stderr, "triqd: SLO watchdog armed: %d objective(s), windows %s/%s\n",
			len(objectives), cfg.sloFast, slow)
	}

	srv.SetRecovering(false)
	fmt.Fprintf(os.Stderr, "triqd: ready: epoch %d, %d triples\n",
		st.Current().Seq, st.Current().Graph.Len())

	select {
	case err := <-serveErr:
		if rep != nil {
			rep.Stop()
		}
		st.Close()
		return fmt.Errorf("serve: %w", err)
	case <-stop:
		fmt.Fprintln(os.Stderr, "triqd: signal received, draining")
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "triqd: context done, draining")
	}

	dctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if rep != nil {
		rep.Stop() // disconnect from the primary before the store closes
	}
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- hs.Shutdown(dctx) }() // stop accepting now
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "triqd:", err)
	}
	if err := <-shutdownDone; err != nil {
		hs.Close()
	}
	if err := st.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "triqd: store close:", err)
	}
	fmt.Fprintln(os.Stderr, "triqd: drained, bye")
	return nil
}

// openStore opens (or creates) the store, replays its WAL, and seeds it from
// -data when it is brand new. An existing store wins over -data: the seed
// file reflects the world before any acknowledged mutations.
func openStore(cfg config, sync repro.StoreSyncPolicy, m *mat.Materializer, o *obs.Obs) (*repro.Store, error) {
	scfg := repro.StoreConfig{
		Dir:             cfg.walDir,
		Sync:            sync,
		CheckpointEvery: cfg.checkpointEvery,
		Obs:             o,
	}
	if m != nil {
		scfg.OnCommit = m.OnCommit
	}
	st, rec, err := repro.OpenStore(scfg)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		fmt.Fprintf(os.Stderr,
			"triqd: recovered epoch %d (snapshot %d, %d WAL records replayed, %d stale skipped) in %s\n",
			rec.Epoch, rec.SnapshotEpoch, rec.Records, rec.Skipped, rec.Elapsed)
		if rec.DamagedTail {
			fmt.Fprintf(os.Stderr, "triqd: torn or corrupt WAL tail truncated at byte %d\n", rec.TruncatedAt)
		}
	}
	empty := st.Current().Seq == 0 && st.Current().Graph.Len() == 0
	switch {
	case cfg.replicaOf != "":
		// A replica's state comes from the primary's stream (snapshot or
		// records), never from a local seed file — seeding would fork the
		// epoch numbering.
		if cfg.data != "" {
			fmt.Fprintf(os.Stderr, "triqd: replica mode; -data %s ignored (state comes from %s)\n",
				cfg.data, cfg.replicaOf)
		}
	case cfg.data != "" && empty:
		g, err := owl.LoadGraph(cfg.data, cfg.ontology)
		if err != nil {
			st.Close()
			return nil, err
		}
		if _, err := st.Bootstrap(g); err != nil {
			st.Close()
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "triqd: store seeded from %s (%d triples)\n", cfg.data, g.Len())
	case cfg.data != "" && !empty:
		fmt.Fprintf(os.Stderr, "triqd: store already populated; -data %s ignored\n", cfg.data)
	}
	return st, nil
}
