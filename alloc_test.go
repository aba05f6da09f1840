package repro_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/limits"
	"repro/internal/mat"
	"repro/internal/rdf"
	"repro/internal/translate"
	"repro/internal/triq"
	"repro/internal/workload"
)

// The ceilings sit about 25% above what the chase allocates (3 485 and 708;
// AllocsPerRun measures on one processor). Before facts were rows of term ids
// the same two evaluations took 27 631 and 696: every derived fact was an
// atom with its own argument slice, under a string set key. An engine that
// copies the database per run and keeps a second instance per round needs
// 93 140 and 76 570.
const (
	transportAllocCeiling = 4_350
	lookupAllocCeiling    = 870
	// An explained warm read measures 88, of which the private registry and
	// the report are all but the plain read's share.
	warmExplainedAllocCeiling = 110
	// The university evaluation takes the probe (bound 0, no null) and a
	// closing pass on rung 1 that proves it complete, and reads its answers off
	// the chased instance: 5 125 (11 820 with atom-valued facts). One depth
	// step to bound 2 before the pass took 23 455; deepening on to bounds 4 and
	// 6 to watch the ground part stay as it is, and copying that ground part
	// out, 56 819 on one engine; chasing the database from scratch at every
	// bound, 139 604.
	universityAllocCeiling = 6_400
	// Loading τ_db(G) for the 10 001-triple graph measures 5 199, of which
	// 5 001 render a literal: the canonical order is the graph's memo and each
	// relation is sized once, its index lists carved from one slab (5 154 when
	// the instance held the atoms). Sorting the graph and adding the atoms one
	// at a time took 42 821.
	loadDBAllocCeiling = 6_450
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
)

// skipInjected skips a test whose evaluation an armed TRIQ_FAULTS plan cut
// short; what the ceilings pin is the evaluation, not the fault.
func skipInjected(t *testing.T, err error) {
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
		_, err := triq.Eval(db, q, triq.TriQLite10, triq.Options{})
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
	var resp *repro.Response
	allocs := testing.AllocsPerRun(5, func() {
		resp, err = repro.Eval(context.Background(), g, req)
		skipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
	})
	if resp.Mappings.Len() != 32 || resp.Stats.NullsInvented != 2 || resp.Stats.FactsDerived != 891 || resp.Depth != 0 || !resp.Exact {
		t.Fatalf("university: %d rows, %d nulls, %d facts at depth %d, exact %v; want 32, 2, 891 at depth 0, exact",
			resp.Mappings.Len(), resp.Stats.NullsInvented, resp.Stats.FactsDerived, resp.Depth, resp.Exact)
	}
	if allocs > universityAllocCeiling {
		t.Errorf("university regime: %.0f allocations per evaluation, ceiling %d", allocs, universityAllocCeiling)
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

// TestLoadDBAllocCeiling pins that loading τ_db(G) allocates per structure,
// not per triple.
func TestLoadDBAllocCeiling(t *testing.T) {
	g := lookupGraph(t)
	var db *chase.Instance
	allocs := testing.AllocsPerRun(5, func() { db = translate.DB(g) })
	if db.Len() != g.Len()+1 {
		t.Fatalf("τ_db(G) holds %d facts for %d triples, want one more", db.Len(), g.Len())
	}
	if allocs > loadDBAllocCeiling {
		t.Errorf("loading %d triples: %.0f allocations, ceiling %d", g.Len(), allocs, loadDBAllocCeiling)
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

// TestWarmExplainedReadAllocCeiling pins that asking for a report does not
// change the order of Eval's steps: the materializer is consulted before
// τ_db(G) is loaded, so an explained warm read over the 10 000-triple graph
// costs its report and not a copy of the graph (37 918 allocations when the
// explain path loaded the graph first; the plain warm read takes 80).
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
