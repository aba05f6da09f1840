package repro_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/translate"
	"repro/internal/triq"
	"repro/internal/workload"
)

// The ceilings sit about 25% above what the chase allocated (3 485 and 708;
// AllocsPerRun measures on one processor); since a rule takes a turn only when
// its body gained rows, from engine scratch, the two measure 2 514 and 669.
// Before facts were rows of term ids
// the same two evaluations took 27 631 and 696: every derived fact was an
// atom with its own argument slice, under a string set key. An engine that
// copies the database per run and keeps a second instance per round needs
// 93 140 and 76 570.
const (
	transportAllocCeiling = 4_350
	lookupAllocCeiling    = 870
	// An explained warm read measures 83, of which the private registry and
	// the report are all but the plain read's 72 (87 and 76 while every read
	// copied and sorted its answer).
	warmExplainedAllocCeiling = 105
	// The university evaluation takes the probe (bound 0, no null) and a
	// closing pass on rung 1 that proves it complete, over the fixpoint of
	// τ_owl2ql_core's database part, which the graph's first request built,
	// and reads its answers off the chased instance: 1 208 allocations and
	// 152 KB, the library's compiled rules run as they are, shared read-only
	// by every engine (1 213 and 182 KB while every engine copied their
	// patterns to resolve them and placed the library's rules in strata of
	// its own; 1 641 and 240 KB while every request derived that part's 279
	// facts itself). A rule takes a turn
	// only when its body gained rows (354 of 476 turns are skipped), a turn
	// taken matches in engine scratch, and a stratum reuses its round's delta
	// (2 459 and 269 KB when every rule took every turn, with its own
	// environments, and every round made a delta map; τ_owl2ql_core is
	// validated, stratified and compiled once per process, so that a request
	// checks and compiles its three query rules and copies the library's
	// compiled patterns; 4 251 and 369 KB while every request validated the
	// 26-rule union four times and compiled and rendered every library rule;
	// 4 270 with τ_owl2ql_core parsed once per process, shared by every
	// request, and its two constraints compiled by the chase; 4 321 while every
	// request cloned the parsed program, 4 392 while it cloned it again to
	// rewrite the constraints, 5 125 while every request parsed it, 11 820 with
	// atom-valued facts).
	// One depth step to bound 2 before the pass took 23 455; deepening on to
	// bounds 4 and 6 to watch the ground part stay as it is, and copying that
	// ground part out, 56 819 on one engine; chasing the database from scratch
	// at every bound, 139 604.
	universityAllocCeiling = 1_510
	universityBytesCeiling = 191_000
	// Loading τ_db(G) for the 10 001-triple graph from the graph's encoding
	// measures 12 allocations and 1 096 bytes: a frozen relation over the
	// encoding's rows and symbol table, which builds its set and its index on
	// first use, and the seed fact. Building the set and the index of all
	// three positions at load took 81 and 1.10 MB; rebuilding the dictionary
	// map from the encoding on every load as well, 115 and 1.76 MB; decoding
	// every triple into an atom and encoding it again, 5 199 and 3.8 MB, of
	// which 5 001 rendered a literal (5 154 when the instance held the atoms);
	// sorting the graph and adding the atoms one at a time, 42 821.
	loadDBAllocCeiling = 15
	loadDBBytesCeiling = 1_400
	// The lookup request's load and chase together measure 724 allocations
	// and 192 KB: TestLookupAllocCeiling's 708 plus the load, and the subject
	// and predicate indexes the chase's first probes build (two CSR indexes of
	// 70 KB each); the object position is never indexed.
	lookupRequestAllocCeiling = 900
	lookupRequestBytesCeiling = 240_000
	// The lookup under the OWL 2 QL core regime, after the graph's first
	// request, measures 181 allocations and 18.4 KB: the load, and a chase of
	// the query's rules over the fixpoint of τ_owl2ql_core's database part
	// that derives 6 facts (182 and 40 KB while every engine copied the
	// library's compiled patterns). While every request derived that part
	// itself, 17 512 facts over the 10 001 triples, it took 20 549 and
	// 4.12 MB.
	regimeLookupAllocCeiling = 227
	regimeLookupBytesCeiling = 23_100
	// A cold materialized build is the chase plus a copy of the database:
	// 3 702 allocations (27 945 with atom-valued facts, 99 116 when a second
	// engine built it).
	matBuildAllocCeiling = 4_650
	// Deleting the route's middle edge and inserting it again, one maintenance
	// pass each, retracts and restores 3 281 facts: 5 115 (48 390 with
	// atom-valued facts, 112 642 when every fact also carried a count of its
	// derivations).
	matMaintainAllocCeiling = 6_400
	// A commit's copy of the 10 001-triple graph plus its four new triples
	// measures 10 040 allocations and 2.1 MB, the set and nothing else. With
	// five per-position indexes maintained beside the set it took 47 918 and
	// 30.9 MB.
	commitCopyAllocCeiling = 12_000
	commitCopyBytesCeiling = 3 << 20
	// A second warm read of the write mix's 3 240 transport rows at one epoch
	// measures 3 566 allocations and 468 KB: a row of decoded terms per
	// answer, and nothing else per row. While every read copied the output
	// atoms out of the instance and sorted their tuples it took 3 583 and
	// 1.08 MB.
	warmReadAllocCeiling = 4_450
	warmReadBytesCeiling = 585_000
)

// skipInjected skips a test whose evaluation an armed TRIQ_FAULTS plan cut
// short; what the ceilings pin is the evaluation, not the fault.
func skipInjected(t testing.TB, err error) {
	t.Helper()
	if errors.Is(err, limits.ErrInjected) {
		t.Skipf("injected fault (TRIQ_FAULTS armed)")
	}
}

func TestTransportAllocCeiling(t *testing.T) {
	db, q := workload.Transport(16, 3, 6), workload.TransportQuery()
	if db.Len() != 128 {
		t.Fatalf("transport database has %d facts, want 128", db.Len())
	}
	allocs := testing.AllocsPerRun(5, func() {
		_, err := triq.EvalCtx(context.Background(), db, q, triq.TriQLite10, triq.Options{})
		skipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > transportAllocCeiling {
		t.Errorf("transport at 128 triples: %.0f allocations per evaluation, ceiling %d", allocs, transportAllocCeiling)
	}
}

// TestMaterializedAllocCeilings pins what the materializer pays the chase for:
// the cold build of the transport fixpoint, and one delete + re-insert of a
// single triple that retracts and restores half of the closure.
func TestMaterializedAllocCeilings(t *testing.T) {
	ctx := context.Background()
	db, prog := workload.Transport(16, 3, 6), workload.TransportQuery().Program
	var inc *chase.Incremental
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		inc, err = chase.NewIncremental(ctx, db, prog, chase.Options{})
		skipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
	})
	if inc.Facts() != 6656 {
		t.Fatalf("transport materialization holds %d facts, want 6656", inc.Facts())
	}
	if allocs > matBuildAllocCeiling {
		t.Errorf("cold materialized build of transport at 128 triples: %.0f allocations, ceiling %d", allocs, matBuildAllocCeiling)
	}
	edge := []datalog.Atom{datalog.NewAtom("triple", datalog.C("city_40"), datalog.C("line8"), datalog.C("city_41"))}
	var del chase.MaintainStats
	allocs = testing.AllocsPerRun(5, func() {
		del, err = inc.Delete(ctx, edge)
		if err == nil {
			_, err = inc.Insert(ctx, edge)
		}
		skipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
	})
	if del.DeltaIn != 1 || del.Deleted == 0 || inc.Facts() != 6656 {
		t.Fatalf("maintenance pair: delete %+v, %d facts afterwards, want 6656", del, inc.Facts())
	}
	if allocs > matMaintainAllocCeiling {
		t.Errorf("delete + re-insert of one triple: %.0f allocations, ceiling %d", allocs, matMaintainAllocCeiling)
	}
}

// TestUniversityAllocCeiling pins that the chase stops where its ground part is
// proved complete: the benchmark's university_regime request, end to end
// through the facade.
func TestUniversityAllocCeiling(t *testing.T) {
	g := workload.University(4, 2, 3, false).ToGraph()
	sq, err := repro.ParseSPARQL("SELECT ?X WHERE { ?X rdf:type person }")
	if err != nil {
		t.Fatal(err)
	}
	req := repro.Request{SPARQL: sq, Regime: repro.ActiveDomainRegime}
	// The first request encodes the graph and compiles the library; the
	// ceilings pin every request after it.
	resp, err := repro.Eval(context.Background(), g, req)
	skipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, func() {
		resp, err = repro.Eval(context.Background(), g, req)
		skipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if resp.Mappings.Len() != 32 || resp.Stats.NullsInvented != 2 || resp.Stats.FactsDerived != 612 || resp.Depth != 0 || !resp.Exact {
		t.Fatalf("university: %d rows, %d nulls, %d facts at depth %d, exact %v; want 32, 2, 612 at depth 0, exact",
			resp.Mappings.Len(), resp.Stats.NullsInvented, resp.Stats.FactsDerived, resp.Depth, resp.Exact)
	}
	if allocs > universityAllocCeiling {
		t.Errorf("university regime: %.0f allocations per evaluation, ceiling %d", allocs, universityAllocCeiling)
	}
	// AllocsPerRun calls the function once to warm up and five times to count.
	if bytes := (after.TotalAlloc - before.TotalAlloc) / 6; bytes > universityBytesCeiling {
		t.Errorf("university regime: %d bytes per evaluation, ceiling %d", bytes, universityBytesCeiling)
	}
}

// lookupGraph is the 10 001-triple graph of the lookup ceilings.
func lookupGraph(t testing.TB) *repro.Graph {
	t.Helper()
	var nt strings.Builder
	for i := 0; i < 2500; i++ {
		fmt.Fprintf(&nt, "<p%d> <knows> <p%d> .\n<p%d> <knows> <p%d> .\n<p%d> <phone> \"t%d\" .\n<p%d> <name> \"n%d\" .\n",
			i, (i+1)%2500, i, (i+7)%2500, i, i, i, i)
	}
	nt.WriteString("<p4> <email> \"m4\" .\n")
	g, err := repro.ParseGraph(nt.String())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRegimeLookupAllocCeiling pins that a regime request over a large graph
// costs what it derives, not its library's database part: after the graph's
// first request a point lookup under the OWL 2 QL core regime over the
// 10 001-triple graph loads τ_db(G) and starts from the fixpoint of that part,
// which the first request built, to derive 6 facts.
func TestRegimeLookupAllocCeiling(t *testing.T) {
	g := lookupGraph(t)
	tr := regimeLookup(t)
	res, err := triq.EvalCtx(context.Background(), translate.DB(g), tr.Query, triq.Unrestricted, triq.Options{})
	skipInjected(t, err)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, func() {
		res, err = triq.EvalCtx(context.Background(), translate.DB(g), tr.Query, triq.Unrestricted, triq.Options{})
		skipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if res.Stats.FactsDerived != 6 || len(res.Answers.Tuples) != 2 || res.LibraryBase == nil || res.LibraryBase.Built {
		t.Fatalf("regime lookup derived %d facts and %d answers over library base %+v, want 6 and 2 over a cached one",
			res.Stats.FactsDerived, len(res.Answers.Tuples), res.LibraryBase)
	}
	if allocs > regimeLookupAllocCeiling {
		t.Errorf("regime lookup over %d triples: %.0f allocations, ceiling %d", g.Len(), allocs, regimeLookupAllocCeiling)
	}
	// AllocsPerRun calls the function once to warm up and five times to count.
	if bytes := (after.TotalAlloc - before.TotalAlloc) / 6; bytes > regimeLookupBytesCeiling {
		t.Errorf("regime lookup over %d triples: %d bytes, ceiling %d", g.Len(), bytes, regimeLookupBytesCeiling)
	}
}

// regimeLookup is the point lookup of the lookup ceilings under the OWL 2 QL
// core regime.
func regimeLookup(t testing.TB) *translate.Translation {
	t.Helper()
	sq, err := repro.ParseSPARQL("SELECT ?Y WHERE { <p3> <knows> ?Y }")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(sq.Pattern(), translate.ActiveDomain)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestLoadDBAllocCeiling pins that loading τ_db(G) allocates per structure,
// not per triple.
func TestLoadDBAllocCeiling(t *testing.T) {
	g := lookupGraph(t)
	translate.DB(g) // the graph's first load encodes it
	var db *chase.Instance
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, func() { db = translate.DB(g) })
	runtime.ReadMemStats(&after)
	if db.Len() != g.Len()+1 {
		t.Fatalf("τ_db(G) holds %d facts for %d triples, want one more", db.Len(), g.Len())
	}
	if allocs > loadDBAllocCeiling {
		t.Errorf("loading %d triples: %.0f allocations, ceiling %d", g.Len(), allocs, loadDBAllocCeiling)
	}
	// AllocsPerRun calls the function once to warm up and five times to count.
	if bytes := (after.TotalAlloc - before.TotalAlloc) / 6; bytes > loadDBBytesCeiling {
		t.Errorf("loading %d triples: %d bytes, ceiling %d", g.Len(), bytes, loadDBBytesCeiling)
	}
}

// TestCommitCopyAllocCeiling pins that the commit path copies a set: what
// Store.apply does to the graph of a write_mix commit, Clone and a 4-triple
// Add, builds no index.
func TestCommitCopyAllocCeiling(t *testing.T) {
	g := lookupGraph(t)
	batch := []rdf.Triple{rdf.T("w0", "knows", "w1"), rdf.T("w1", "knows", "w2"), rdf.T("w2", "knows", "w3"), rdf.T("w3", "knows", "w0")}
	var next *repro.Graph
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, func() {
		next = g.Clone()
		next.Add(batch...)
	})
	runtime.ReadMemStats(&after)
	if next.Len() != g.Len()+4 {
		t.Fatalf("copy holds %d triples, want %d", next.Len(), g.Len()+4)
	}
	if allocs > commitCopyAllocCeiling {
		t.Errorf("Clone + 4-triple Add over %d triples: %.0f allocations, ceiling %d", g.Len(), allocs, commitCopyAllocCeiling)
	}
	// AllocsPerRun calls the function once to warm up and five times to count.
	if bytes := (after.TotalAlloc - before.TotalAlloc) / 6; bytes > commitCopyBytesCeiling {
		t.Errorf("Clone + 4-triple Add over %d triples: %d bytes, ceiling %d", g.Len(), bytes, commitCopyBytesCeiling)
	}
}

// TestLookupAllocCeiling pins that evaluating a query costs what it derives,
// not what the database holds: 10 derived facts over 10 000 triples.
func TestLookupAllocCeiling(t *testing.T) {
	g := lookupGraph(t)
	sq, err := repro.ParseSPARQL("SELECT ?Y ?E WHERE { <p3> <knows> ?Y . OPTIONAL { ?Y <email> ?E } }")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(sq.Pattern(), translate.Plain)
	if err != nil {
		t.Fatal(err)
	}
	db := translate.DB(g)
	if db.Len() < 10_000 {
		t.Fatalf("lookup database has %d facts, want 10 000", db.Len())
	}
	var res *triq.Result
	allocs := testing.AllocsPerRun(5, func() {
		res, err = triq.EvalCtx(context.Background(), db, tr.Query, triq.Unrestricted, triq.Options{})
		skipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
	})
	if res.Stats.FactsDerived != 10 || len(res.Answers.Tuples) != 2 {
		t.Fatalf("lookup derived %d facts and %d answers, want 10 and 2", res.Stats.FactsDerived, len(res.Answers.Tuples))
	}
	if allocs > lookupAllocCeiling {
		t.Errorf("10-fact lookup over %d facts: %.0f allocations per evaluation, ceiling %d", db.Len(), allocs, lookupAllocCeiling)
	}
}

// TestLookupRequestAllocCeiling pins the lookup request's load and chase
// together: τ_db(G) is loaded inside the measured function, so the index work
// a frozen base defers from its load to its first probe is counted where the
// request pays it.
func TestLookupRequestAllocCeiling(t *testing.T) {
	g := lookupGraph(t)
	sq, err := repro.ParseSPARQL("SELECT ?Y ?E WHERE { <p3> <knows> ?Y . OPTIONAL { ?Y <email> ?E } }")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(sq.Pattern(), translate.Plain)
	if err != nil {
		t.Fatal(err)
	}
	translate.DB(g) // the graph's first load encodes it
	var res *triq.Result
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, func() {
		res, err = triq.EvalCtx(context.Background(), translate.DB(g), tr.Query, triq.Unrestricted, triq.Options{})
		skipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if res.Stats.FactsDerived != 10 || len(res.Answers.Tuples) != 2 {
		t.Fatalf("lookup derived %d facts and %d answers, want 10 and 2", res.Stats.FactsDerived, len(res.Answers.Tuples))
	}
	if allocs > lookupRequestAllocCeiling {
		t.Errorf("load + 10-fact lookup over %d triples: %.0f allocations, ceiling %d", g.Len(), allocs, lookupRequestAllocCeiling)
	}
	// AllocsPerRun calls the function once to warm up and five times to count.
	if bytes := (after.TotalAlloc - before.TotalAlloc) / 6; bytes > lookupRequestBytesCeiling {
		t.Errorf("load + 10-fact lookup over %d triples: %d bytes, ceiling %d", g.Len(), bytes, lookupRequestBytesCeiling)
	}
}

// TestWarmExplainedReadAllocCeiling pins that asking for a report does not
// change the order of Eval's steps: the materializer is consulted before
// τ_db(G) is loaded, so an explained warm read over the 10 000-triple graph
// costs its report and not a copy of the graph (37 918 allocations when the
// explain path loaded the graph first; the plain warm read takes 72).
func TestWarmExplainedReadAllocCeiling(t *testing.T) {
	g := lookupGraph(t)
	q, err := repro.ParseQuery("triple(p3, knows, ?Y) -> query(?Y).", "query")
	if err != nil {
		t.Fatal(err)
	}
	m := mat.New(mat.Config{})
	st, _, err := repro.OpenStore(repro.StoreConfig{OnCommit: m.OnCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m.Reset(st.Current().Seq)
	if _, _, err := st.Insert(g.Triples()); err != nil {
		t.Fatal(err)
	}
	ep := st.Current()
	req := repro.Request{Query: q, Language: repro.TriQLite10, Explain: true,
		Options: repro.Options{Mat: m, MatEpoch: ep.Seq}}
	if _, err := repro.Eval(context.Background(), ep.Graph, req); err != nil { // cold build
		t.Fatal(err)
	}
	var resp *repro.Response
	allocs := testing.AllocsPerRun(5, func() {
		if resp, err = repro.Eval(context.Background(), ep.Graph, req); err != nil {
			t.Fatal(err)
		}
	})
	if len(resp.Tuples) != 2 || resp.Explain.Path != triq.PathMaterialized {
		t.Fatalf("warm read: %d answers by path %q, want 2 by %q", len(resp.Tuples), resp.Explain.Path, triq.PathMaterialized)
	}
	if allocs > warmExplainedAllocCeiling {
		t.Errorf("explained warm read over %d triples: %.0f allocations, ceiling %d", ep.Graph.Len(), allocs, warmExplainedAllocCeiling)
	}
}

// warmTransport is the write mix's read in process: a materializer fed by a
// volatile store that holds the 10 001-triple directory graph and the
// 128-triple transport network, and the transport query, whose 3 240 rows
// the first read builds and installs.
type warmTransport struct {
	st  *repro.Store
	m   *mat.Materializer
	obs *obs.Obs
	req repro.Request
}

func newWarmTransport(tb testing.TB) *warmTransport {
	tb.Helper()
	o := obs.New()
	m := mat.New(mat.Config{Obs: o})
	st, _, err := repro.OpenStore(repro.StoreConfig{OnCommit: m.OnCommit})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	m.Reset(st.Current().Seq)
	triples := append(lookupGraph(tb).Triples(), workload.TransportGraph(16, 3, 6, "t").Triples()...)
	if _, _, err := st.Insert(triples); err != nil {
		tb.Fatal(err)
	}
	w := &warmTransport{st: st, m: m, obs: o, req: repro.Request{Query: workload.TransportQuery(), Language: repro.TriQLite10}}
	resp := w.read(tb)
	if w.counter("mat.builds") == 0 && os.Getenv("TRIQ_FAULTS") != "" {
		tb.Skip("injected fault (TRIQ_FAULTS armed) cut the cold build")
	}
	if len(resp.Tuples) != 3240 || w.counter("mat.builds") != 1 {
		tb.Fatalf("cold read: %d rows and %d builds, want 3240 and 1", len(resp.Tuples), w.counter("mat.builds"))
	}
	return w
}

func (w *warmTransport) counter(name string) int64 { return w.obs.Registry().Counter(name) }

// read evaluates the request at the store's current epoch.
func (w *warmTransport) read(tb testing.TB) *repro.Response {
	ep := w.st.Current()
	req := w.req
	req.Options = repro.Options{Mat: w.m, MatEpoch: ep.Seq}
	resp, err := repro.Eval(context.Background(), ep.Graph, req)
	skipInjected(tb, err)
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// TestWarmReadAllocCeiling pins that a warm read shares its epoch's answer:
// the write mix's read of 3 240 transport rows over 10 129 triples, a second
// time at one epoch, copies and sorts nothing and pays only the decode of its
// rows.
func TestWarmReadAllocCeiling(t *testing.T) {
	w := newWarmTransport(t)
	var resp *repro.Response
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, func() { resp = w.read(t) })
	runtime.ReadMemStats(&after)
	if len(resp.Tuples) != 3240 || w.counter("mat.hits") != 6 || w.counter("mat.view_builds") != 0 {
		t.Fatalf("warm reads: %d rows, %d hits, %d view builds; want 3240, 6 and none",
			len(resp.Tuples), w.counter("mat.hits"), w.counter("mat.view_builds"))
	}
	// AllocsPerRun calls the function once to warm up and five times to count.
	bytes := (after.TotalAlloc - before.TotalAlloc) / 6
	if allocs > warmReadAllocCeiling {
		t.Errorf("warm read of 3 240 rows: %.0f allocations, ceiling %d", allocs, warmReadAllocCeiling)
	}
	if bytes > warmReadBytesCeiling {
		t.Errorf("warm read of 3 240 rows: %d bytes, ceiling %d", bytes, warmReadBytesCeiling)
	}
}
