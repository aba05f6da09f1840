package main

// Every call the benchmark makes into the engine's packages is in this file,
// one small method per layer boundary, so that a change of the engine's API
// needs a change here and nowhere else in the benchmark. The methods do no
// timing and know no metric; traced.go wraps them in spans.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/translate"
	"repro/internal/triq"
)

// chaseOptions are the chase bounds triqd's default flags give both the
// request path and the materializer (-parallelism 1); the materializer
// serves only requests whose bounds equal its own.
var chaseOptions = chase.Options{Parallelism: 1}

// requestOptions are the chase options the handler adds to the bounds for
// every request: the server's metrics registry and its progress gauge.
func requestOptions(o *obs.Obs, p *chase.Progress) chase.Options {
	opts := chaseOptions
	opts.Obs, opts.Progress = o, p
	return opts
}

// layers is one workload's request and graph, prepared for replay.
type layers struct {
	graph *rdf.Graph

	// The read request. sparqlSrc is empty on a Datalog workload.
	path, sparqlSrc string
	body            []byte
	regime          translate.Regime

	// Parsed once; the stage methods take these as their inputs.
	program datalog.Query // the transport program, every workload's Datalog request
	query   *sparql.Query // this workload's SPARQL request, or the reference one
	trans   *translate.Translation
	atoms   []datalog.Atom  // τ_db(G), for the Instance.Add probe
	db      *chase.Instance // the last loadDB result

	chase chase.Options // what the handler passes to every evaluation

	dir    string
	always *store.Store // -wal-sync always, feeds the materializer
	nosync *store.Store // -wal-sync none, leader of the follower
	direct *store.Store // takes ApplyReplicated calls directly
	follow *store.Store // fed by a Replica through the stream handler
	mat    *mat.Materializer
	// maintained is called by the always store's OnCommit hook around the
	// materializer's maintenance pass.
	maintained func(insert bool, run func())

	server  *serve.Server
	handler http.Handler
	stream  *httptest.Server
	replica *repl.Replica
}

// newLayers parses the workload's inputs and opens the stores under dir.
func newLayers(w *workload, in *inputs, dir string) (*layers, error) {
	g, err := rdf.ParseNTriplesString(w.graph(in))
	if err != nil {
		return nil, err
	}
	l := &layers{graph: g, dir: dir}
	l.path, l.body = w.request(in)
	// The front-end stages do not depend on the graph, so every workload
	// measures them on both request languages: its own request in its own
	// language, and the other language's fixed reference request.
	regime := "active-domain"
	l.sparqlSrc = universityQuery
	if w.sparql != nil {
		l.sparqlSrc, regime = w.sparql(in), w.regime
	}
	switch regime {
	case "plain":
		l.regime = translate.Plain
	case "active-domain":
		l.regime = translate.ActiveDomain
	default:
		return nil, fmt.Errorf("regime %q is not one the benchmark uses", regime)
	}
	if l.program, err = datalog.ParseQuery(transportProgram, "query"); err != nil {
		return nil, err
	}
	if l.query, err = sparql.ParseQuery(l.sparqlSrc); err != nil {
		return nil, err
	}
	if l.trans, err = translate.Translate(l.query.Pattern(), l.regime); err != nil {
		return nil, err
	}
	l.atoms = owl.GraphToDB(g)

	o, progress := obs.New(), &chase.Progress{}
	l.chase = requestOptions(o, progress)
	l.mat = mat.New(mat.Config{Chase: chaseOptions, Obs: o})
	open := func(name string, sync store.SyncPolicy, hook func(store.CommitEvent)) (*store.Store, error) {
		st, _, err := store.Open(store.Config{
			Dir: filepath.Join(dir, name), Sync: sync, OnCommit: hook,
			// Checkpoints are taken explicitly, every 16th commit, so that a
			// commit's span never contains one.
			CheckpointEvery: -1, CheckpointBytes: -1,
		})
		if err != nil {
			return nil, err
		}
		if _, err := st.Bootstrap(g); err != nil {
			st.Close()
			return nil, err
		}
		return st, nil
	}
	hook := func(ev store.CommitEvent) {
		if l.maintained == nil || ev.Op == store.OpSnapshot {
			l.mat.OnCommit(ev)
			return
		}
		l.maintained(ev.Op == store.OpInsert, func() { l.mat.OnCommit(ev) })
	}
	if l.always, err = open("always", store.SyncAlways, hook); err != nil {
		return nil, err
	}
	if l.nosync, err = open("nosync", store.SyncNone, nil); err != nil {
		return nil, err
	}
	if l.direct, err = open("direct", store.SyncNone, nil); err != nil {
		return nil, err
	}
	if l.follow, _, err = store.Open(store.Config{Dir: filepath.Join(dir, "follow"), Sync: store.SyncNone}); err != nil {
		return nil, err
	}
	l.mat.Reset(l.always.Current().Seq)

	// The server is configured as triqd configures it from default flags.
	cfg := serve.Config{
		Obs: o, Progress: progress, Parallelism: chaseOptions.Parallelism,
		Trace: serve.TraceConfig{Seed: in.seed},
	}
	if w.durable {
		cfg.Mat = l.mat
	}
	if l.server = serve.New(cfg); w.durable {
		l.server.SetStore(l.always)
	} else {
		l.server.SetGraph(g)
	}
	l.handler = l.server.Handler()

	l.stream = httptest.NewServer(repl.StreamHandler(l.nosync, nil, repl.StreamOptions{}))
	l.replica = repl.New(repl.Config{Primary: l.stream.URL, Store: l.follow})
	l.replica.Start(context.Background())
	return l, nil
}

func (l *layers) close() {
	if l.replica != nil {
		l.replica.Stop()
	}
	if l.stream != nil {
		l.stream.Close()
	}
	if l.server != nil {
		l.server.Drain(context.Background())
	}
	for _, st := range []*store.Store{l.always, l.nosync, l.direct, l.follow} {
		if st != nil {
			st.Close()
		}
	}
}

// options are the evaluation options the handler builds for a request.
func (l *layers) options(served bool) triq.Options {
	opts := triq.Options{Chase: l.chase}
	if served {
		opts.Mat, opts.MatEpoch = l.mat, l.always.Current().Seq
	}
	return opts
}

// serveRequest is the root of a request: the HTTP handler on a recorder.
func (l *layers) serveRequest() (rows []string, size int, err error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, l.path, bytes.NewReader(l.body))
	l.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: status %d: %s", l.path, rec.Code, rec.Body.String())
	}
	var rep queryReply
	size = rec.Body.Len()
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		return nil, 0, err
	}
	return rep.Rows, size, nil
}

// facadeAsk is the facade call the handler makes for the workload's request.
// It returns the answer's rows as a function, because rendering them is the
// handler's work, not the facade's.
func (l *layers) facadeAsk(served bool) (rows func() []string, err error) {
	if l.path == "/query" {
		return l.askTransport(served)
	}
	ms, _, err := repro.AskSPARQLCtx(context.Background(), l.query, l.graph, l.regime, l.options(false))
	if err != nil {
		return nil, err
	}
	return func() []string {
		var rows []string
		for _, m := range ms.Mappings() {
			rows = append(rows, m.String())
		}
		return rows
	}, nil
}

// askTransport is the transport query through the facade; served attaches
// the materializer and reads the always store's epoch, as a -materialize
// triqd does.
func (l *layers) askTransport(served bool) (rows func() []string, err error) {
	g := l.graph
	if served {
		g = l.always.Current().Graph
	}
	res, err := repro.AskCtx(context.Background(), g, l.program, repro.TriQLite10, l.options(served))
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (l *layers) parseSPARQL() error {
	_, err := sparql.ParseQuery(l.sparqlSrc)
	return err
}

func (l *layers) parseDatalog() error {
	_, err := datalog.ParseQuery(transportProgram, "query")
	return err
}

func (l *layers) validate() error { return triq.Validate(l.program, triq.TriQLite10) }

func (l *layers) translate() error {
	_, err := translate.Traced(l.query.Pattern(), l.regime, l.chase.Obs)
	return err
}

// rules is the size of the translated program.
func (l *layers) rules() int { return len(l.trans.Query.Program.Rules) }

// facts is |τ_db(G)|.
func (l *layers) facts() int { return len(l.atoms) }

// loadDB builds τ_db(G) the way the workload's facade call does and keeps it
// as the input of the stages that follow.
func (l *layers) loadDB() (err error) {
	if l.path == "/query" {
		l.db, err = chase.FromFacts(owl.GraphToDB(l.graph))
		return err
	}
	l.db = translate.DB(l.graph)
	return nil
}

// addAll is Instance.Add alone: τ_db(G)'s atoms, already converted, into an
// empty instance.
func (l *layers) addAll() error {
	_, err := chase.FromFacts(l.atoms)
	return err
}

// cloneInstance is the copy of the database every chase run starts with.
func (l *layers) cloneInstance() error {
	l.db.Clone()
	return nil
}

// evalStats is what a chase reports about itself.
type evalStats struct {
	rounds, attempted, fired, derived, nulls int
	path                                     string
}

// eval evaluates the workload's query over the loaded database; with build
// it is the transport program through the materializer, which builds and
// installs the fixpoint.
func (l *layers) eval(build bool) (evalStats, error) {
	q, lang := l.program, triq.TriQLite10
	if l.path == "/sparql" && !build {
		q, lang = l.trans.Query, triq.Unrestricted
	}
	res, err := triq.EvalCtx(context.Background(), l.db, q, lang, l.options(build))
	if err != nil {
		return evalStats{}, err
	}
	if res.Incomplete {
		return evalStats{}, fmt.Errorf("evaluation truncated: %v", res.Truncation)
	}
	st := evalStats{
		rounds: res.Stats.Rounds, fired: res.Stats.TriggersFired,
		derived: res.Stats.FactsDerived, nulls: res.Stats.NullsInvented, path: res.Path,
	}
	for _, r := range res.Stats.PerRule {
		st.attempted += r.TriggersAttempted
	}
	return st, nil
}

// resetMat drops the materialization, so the next eval with build is cold.
func (l *layers) resetMat() { l.mat.Reset(l.always.Current().Seq) }

// matServe reads the transport answer from the warm materialization at the
// always store's epoch; hit is false on a miss.
func (l *layers) matServe() (rows int, hit bool) {
	served := l.mat.Serve(l.program.Program, l.always.Current().Seq, l.program.Output, l.chase)
	if served == nil {
		return 0, false
	}
	return len(served.Output), true
}

// triples is a parsed write batch.
type triples = []rdf.Triple

func parseBatch(text string) (triples, error) {
	g, err := rdf.ParseNTriplesString(text)
	if err != nil {
		return nil, err
	}
	return g.SortedTriples(), nil
}

// commit applies one batch to a store and checks that all of it landed.
func commit(st *store.Store, insert bool, batch triples) (uint64, error) {
	var e store.Epoch
	var n int
	var err error
	if insert {
		e, n, err = st.Insert(batch)
	} else {
		e, n, err = st.Delete(batch)
	}
	if err == nil && n != len(batch) {
		err = fmt.Errorf("commit applied %d of %d triples", n, len(batch))
	}
	return e.Seq, err
}

func (l *layers) cloneGraph() error {
	l.always.Current().Graph.Clone()
	return nil
}

// record is the WAL and replication record of a batch.
func record(insert bool, epoch uint64, text string) store.Record {
	op := store.OpDelete
	if insert {
		op = store.OpInsert
	}
	return store.Record{Op: op, Epoch: epoch, Text: []byte(text)}
}

func encodedLen(r store.Record) int { return len(store.EncodeRecord(r)) }

func (l *layers) applyReplicated(r store.Record) error {
	_, applied, err := l.direct.ApplyReplicated(r)
	if err == nil && !applied {
		err = fmt.Errorf("replicated record at epoch %d was not applied", r.Epoch)
	}
	return err
}

// awaitFollower blocks until the replica has made the epoch visible.
func (l *layers) awaitFollower(epoch uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return l.follow.WaitEpoch(ctx, epoch)
}

// checkpoint snapshots the always store and returns the snapshot's size.
func (l *layers) checkpoint() (int64, error) {
	if err := l.always.Checkpoint(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(filepath.Join(l.dir, "always", "snapshot.nt"))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// reopen closes the always store and recovers it from its directory.
func (l *layers) reopen() (elapsed time.Duration, records int, err error) {
	if err := l.always.Close(); err != nil {
		return 0, 0, err
	}
	st, rec, err := store.Open(store.Config{
		Dir: filepath.Join(l.dir, "always"), Sync: store.SyncAlways,
		CheckpointEvery: -1, CheckpointBytes: -1,
	})
	if err != nil {
		l.always = nil
		return 0, 0, err
	}
	l.always = st
	return rec.Elapsed, rec.Records, nil
}
