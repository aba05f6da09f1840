package repro_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro"
	"repro/internal/chase"
	"repro/internal/limits"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/translate"
	"repro/internal/triq"
	"repro/internal/workload"
)

// The library's database part, once per graph: a regime request over an
// untouched load of a graph's encoding starts from the fixpoint of its
// library's database part, which the first request over the encoding builds
// (chase.StableGroundCtx).

// regimeQuery is the university_regime request's translation, under U.
func regimeQuery(t *testing.T) translate.Translation {
	t.Helper()
	sq, err := repro.ParseSPARQL("SELECT ?X WHERE { ?X rdf:type person }")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(sq.Pattern(), translate.ActiveDomain)
	if err != nil {
		t.Fatal(err)
	}
	return *tr
}

// outcomeText renders what an evaluation answered and counted, times left out.
func outcomeText(res *triq.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	st := res.Stats
	st.PerRule = append([]chase.RuleStats(nil), st.PerRule...)
	for i := range st.PerRule {
		st.PerRule[i].Time = 0
	}
	tr := ""
	if res.Truncation != nil {
		tr = res.Truncation.Limit
	}
	return fmt.Sprintf("%v %v exact=%v incomplete=%v %s depth=%d %+v",
		res.Answers.Inconsistent, res.Answers.Tuples, res.Exact, res.Incomplete, tr, res.Depth, st)
}

// TestLibraryBaseFreshPerCommit: a commit makes a new graph, so the first
// regime request at the new epoch builds a new base and sees the commit, while
// a request still pinned to the old epoch's graph finds the old base.
func TestLibraryBaseFreshPerCommit(t *testing.T) {
	st, _, err := repro.OpenStore(repro.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, _, err := st.Insert(workload.University(2, 2, 2, false).ToGraph().Triples()); err != nil {
		t.Fatal(err)
	}
	tr := regimeQuery(t)
	ask := func(g *rdf.Graph) (*triq.Result, error) {
		res, err := triq.EvalCtx(context.Background(), translate.DB(g), tr.Query, triq.Unrestricted, triq.Options{})
		skipInjected(t, err)
		return res, err
	}
	old := st.Current().Graph
	for i, wantBuilt := range []bool{true, false} {
		res, err := ask(old)
		if err != nil {
			t.Fatal(err)
		}
		if lb := res.LibraryBase; lb == nil || lb.Built != wantBuilt {
			t.Fatalf("request %d at the first epoch: library base %+v, want built %v", i, lb, wantBuilt)
		}
	}
	before, _ := ask(old)
	if _, _, err := st.Insert([]rdf.Triple{rdf.T("zed", "rdf:type", "student")}); err != nil {
		t.Fatal(err)
	}
	after, err := ask(st.Current().Graph)
	if err != nil {
		t.Fatal(err)
	}
	if lb := after.LibraryBase; lb == nil || !lb.Built || lb.Facts <= before.LibraryBase.Facts {
		t.Errorf("first request after the commit: library base %+v, want a new build of more than %d facts", lb, before.LibraryBase.Facts)
	}
	if !after.Answers.HasConstants("zed") || before.Answers.HasConstants("zed") {
		t.Errorf("zed, a student committed later, answers %v before the commit and %v after it", before.Answers.HasConstants("zed"), after.Answers.HasConstants("zed"))
	}
	if again, _ := ask(old); again.LibraryBase == nil || again.LibraryBase.Built || outcomeText(again, nil) != outcomeText(before, nil) {
		t.Errorf("the first epoch's graph after the commit: library base %+v, answer %s; want the cached base and %s",
			again.LibraryBase, outcomeText(again, nil), outcomeText(before, nil))
	}
}

// TestLibraryBaseCutBuild: a build a fact budget or a cancellation cuts short
// leaves the memo empty, and the request that ran it answers exactly as the
// ordinary path does, which a copy of the load takes; the next request builds.
func TestLibraryBaseCutBuild(t *testing.T) {
	tr := regimeQuery(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		opts triq.Options
	}{
		{"budget", context.Background(), triq.Options{Chase: chase.Options{MaxFacts: 150}}},
		{"cancel", canceled, triq.Options{}},
	} {
		g := workload.University(2, 2, 2, false).ToGraph() // a graph of its own: a new encoding
		if facts := owl.DB(g).Len(); c.opts.Chase.MaxFacts > 0 && facts >= c.opts.Chase.MaxFacts {
			t.Fatalf("%s: τ_db(G) holds %d facts, the budget must leave the load room", c.name, facts)
		}
		res, err := triq.EvalCtx(c.ctx, translate.DB(g), tr.Query, triq.Unrestricted, c.opts)
		wantRes, wantErr := triq.EvalCtx(c.ctx, translate.DB(g).Clone(), tr.Query, triq.Unrestricted, c.opts)
		if errors.Is(err, limits.ErrInjected) || errors.Is(wantErr, limits.ErrInjected) {
			t.Skip("injected fault (TRIQ_FAULTS armed)")
		}
		if cut := err != nil && errors.Is(err, limits.ErrCanceled) || err == nil && res.Incomplete; !cut {
			t.Fatalf("%s: the request was not cut short: %s", c.name, outcomeText(res, err))
		}
		if got, want := outcomeText(res, err), outcomeText(wantRes, wantErr); got != want {
			t.Errorf("%s: the request whose build was cut answered\n%s\nthe ordinary path\n%s", c.name, got, want)
		}
		if res != nil && res.LibraryBase != nil {
			t.Errorf("%s: the cut build reports a library base %+v", c.name, res.LibraryBase)
		}
		next, err := triq.EvalCtx(context.Background(), translate.DB(g), tr.Query, triq.Unrestricted, triq.Options{})
		skipInjected(t, err)
		if err != nil {
			t.Fatal(err)
		}
		if lb := next.LibraryBase; lb == nil || !lb.Built {
			t.Errorf("%s: the next request found library base %+v, want one it built", c.name, lb)
		}
	}
}
