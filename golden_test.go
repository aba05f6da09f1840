package repro

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/limits"
	"repro/internal/mat"
	"repro/internal/translate"
	"repro/internal/triq"
)

// The golden corpus pins end-to-end behavior: each fixture under
// testdata/golden/<name>/ is a graph (or ontology), a query (Datalog or
// SPARQL), and the expected answers in expected.txt, which the evaluation
// must reproduce byte for byte. Regenerate after an intentional behavior
// change with:
//
//	go test -run TestGolden . -update

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*/expected.txt")

// goldenCase configures one fixture directory. Files:
//
//	graph.nt     — N-Triples database (or ontology.owl, functional syntax)
//	program.dlog — Datalog^{∃,¬s,⊥} program answered at `output`, or
//	query.rq     — SPARQL SELECT evaluated under `regime`
//	expected.txt — the golden answers
type goldenCase struct {
	name   string
	lang   Language // Datalog fixtures: dialect the program must pass
	output string   // Datalog fixtures: output predicate
	regime Regime   // SPARQL fixtures
}

var goldenCases = []goldenCase{
	{name: "transport", lang: TriQLite10, output: "query"},
	{name: "triangle", lang: TriQLite10, output: "query"},
	{name: "negation", lang: TriQLite10, output: "query"},
	{name: "anonymize", lang: TriQLite10, output: "query"},
	{name: "coauthors-opt", regime: PlainRegime},
	{name: "union-filter", regime: PlainRegime},
	{name: "university-person", regime: AllRegime},
	{name: "university-worksfor", regime: ActiveDomainRegime},
	{name: "university-teaches", regime: AllRegime},
	{name: "university-inconsistent", regime: ActiveDomainRegime},
}

// goldenGraph loads the fixture database: graph.nt, ontology.owl, or both
// merged (ABox triples alongside an ontology's RDF encoding).
func goldenGraph(t *testing.T, dir string) *Graph {
	t.Helper()
	var g *Graph
	if src, err := os.ReadFile(filepath.Join(dir, "ontology.owl")); err == nil {
		onto, err := ParseOntology(string(src))
		if err != nil {
			t.Fatalf("%s: parse ontology: %v", dir, err)
		}
		g = onto.ToGraph()
	}
	if src, err := os.ReadFile(filepath.Join(dir, "graph.nt")); err == nil {
		h, err := ParseGraph(string(src))
		if err != nil {
			t.Fatalf("%s: parse graph: %v", dir, err)
		}
		if g == nil {
			g = h
		} else {
			for _, tr := range h.Triples() {
				g.Add(tr)
			}
		}
	}
	if g == nil {
		t.Fatalf("%s: no graph.nt or ontology.owl", dir)
	}
	return g
}

// goldenRun evaluates the fixture and renders the answers in the canonical
// golden format.
func goldenRun(t *testing.T, c goldenCase, dir string) string {
	t.Helper()
	g := goldenGraph(t, dir)
	var b strings.Builder
	if src, err := os.ReadFile(filepath.Join(dir, "program.dlog")); err == nil {
		q, err := ParseQuery(string(src), c.output)
		if err != nil {
			t.Fatalf("%s: parse program: %v", dir, err)
		}
		res, err := AskCtx(context.Background(), g, q, c.lang, Options{})
		skipInjected(t, err)
		if err != nil {
			t.Fatalf("%s: ask: %v", dir, err)
		}
		fmt.Fprintf(&b, "inconsistent: %v\n", res.Inconsistent)
		for _, row := range res.Rows() {
			b.WriteString(row)
			b.WriteByte('\n')
		}
		return b.String()
	}
	src, err := os.ReadFile(filepath.Join(dir, "query.rq"))
	if err != nil {
		t.Fatalf("%s: no program.dlog or query.rq", dir)
	}
	q, err := ParseSPARQL(string(src))
	if err != nil {
		t.Fatalf("%s: parse query: %v", dir, err)
	}
	ms, inconsistent, err := AskSPARQLCtx(context.Background(), q, g, c.regime, Options{})
	skipInjected(t, err)
	if err != nil {
		t.Fatalf("%s: ask sparql: %v", dir, err)
	}
	fmt.Fprintf(&b, "inconsistent: %v\n", inconsistent)
	if ms != nil && ms.Len() > 0 {
		b.WriteString(ms.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "golden", c.name)
			got := goldenRun(t, c, dir)
			expPath := filepath.Join(dir, "expected.txt")
			if *updateGolden {
				if err := os.WriteFile(expPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(expPath)
			if err != nil {
				t.Fatalf("%s: %v (run with -update to create)", c.name, err)
			}
			if string(want) != got {
				t.Errorf("%s: answers changed:\n--- want\n%s--- got\n%s", c.name, want, got)
			}
		})
	}
}

// goldenDeleteCases pin the incremental deletion path: each fixture carries a
// delete.nt batch alongside graph.nt and a recursive program.dlog. The graph
// is committed to a live store wired into a materializer, the program's
// materialization is built warm, the batch is deleted — folded by DRed, since
// every program here is recursive — and the post-delete answers, served from
// the maintained instance, are the golden bytes. A from-scratch chase of the
// post-delete graph must agree exactly.
var goldenDeleteCases = []goldenCase{
	{name: "delete-transport", lang: TriQLite10, output: "query"},
	{name: "delete-diamond", lang: TriQLite10, output: "query"},
	{name: "delete-hub", lang: TriQLite10, output: "query"},
}

func goldenDeleteRun(t *testing.T, c goldenCase, dir string) string {
	t.Helper()
	g := goldenGraph(t, dir)
	delSrc, err := os.ReadFile(filepath.Join(dir, "delete.nt"))
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	del, err := ParseGraph(string(delSrc))
	if err != nil {
		t.Fatalf("%s: parse delete.nt: %v", dir, err)
	}
	progSrc, err := os.ReadFile(filepath.Join(dir, "program.dlog"))
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	q, err := ParseQuery(string(progSrc), c.output)
	if err != nil {
		t.Fatalf("%s: parse program: %v", dir, err)
	}

	m := mat.New(mat.Config{})
	st, _, err := OpenStore(StoreConfig{OnCommit: m.OnCommit})
	if err != nil {
		t.Fatalf("%s: open store: %v", dir, err)
	}
	defer st.Close()
	m.Reset(st.Current().Seq)
	if _, _, err := st.Insert(g.Triples()); err != nil {
		skipInjected(t, err)
		t.Fatalf("%s: insert: %v", dir, err)
	}
	opts := Options{Mat: m, MatEpoch: st.Current().Seq}
	if _, err := AskCtx(context.Background(), st.Current().Graph, q, c.lang, opts); err != nil {
		skipInjected(t, err)
		t.Fatalf("%s: cold build: %v", dir, err)
	}
	if _, _, err := st.Delete(del.Triples()); err != nil {
		skipInjected(t, err)
		t.Fatalf("%s: delete: %v", dir, err)
	}
	if snap := m.Snapshot(); snap.Programs != 1 && os.Getenv("TRIQ_FAULTS") == "" {
		t.Fatalf("%s: materialization dropped during delete maintenance", dir)
	}
	ep := st.Current()
	opts.MatEpoch = ep.Seq
	res, err := AskCtx(context.Background(), ep.Graph, q, c.lang, opts)
	if err != nil {
		skipInjected(t, err)
		t.Fatalf("%s: ask after delete: %v", dir, err)
	}
	plain, err := AskCtx(context.Background(), ep.Graph, q, c.lang, Options{})
	if err != nil {
		skipInjected(t, err)
		t.Fatalf("%s: chase after delete: %v", dir, err)
	}
	got, want := renderGolden(res), renderGolden(plain)
	if got != want {
		t.Fatalf("%s: DRed-maintained answers diverge from the re-chase:\n--- maintained\n%s--- chase\n%s", dir, got, want)
	}
	return got
}

func renderGolden(res *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "inconsistent: %v\n", res.Inconsistent)
	for _, row := range res.Rows() {
		b.WriteString(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// skipInjected skips a test whose evaluation an armed TRIQ_FAULTS plan cut
// short: the process-global plan trips wherever its hit count says, and what
// the test pins is the evaluation, not the fault. Any other error is the
// caller's to report.
func skipInjected(t *testing.T, err error) {
	t.Helper()
	if err != nil && errors.Is(err, limits.ErrInjected) {
		t.Skipf("injected fault (TRIQ_FAULTS armed)")
	}
}

func TestGoldenDelete(t *testing.T) {
	for _, c := range goldenDeleteCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "golden", c.name)
			got := goldenDeleteRun(t, c, dir)
			expPath := filepath.Join(dir, "expected.txt")
			if *updateGolden {
				if err := os.WriteFile(expPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(expPath)
			if err != nil {
				t.Fatalf("%s: %v (run with -update to create)", c.name, err)
			}
			if string(want) != got {
				t.Errorf("%s: answers changed:\n--- want\n%s--- got\n%s", c.name, want, got)
			}
		})
	}
}

// TestGoldenDialects pins that the Datalog fixtures stay inside the language
// the paper assigns them (TriQ-Lite 1.0 ⇒ PTime data complexity), and that
// the SPARQL fixtures translate into it (Corollary 6.2).
func TestGoldenDialects(t *testing.T) {
	for _, c := range goldenCases {
		dir := filepath.Join("testdata", "golden", c.name)
		if src, err := os.ReadFile(filepath.Join(dir, "program.dlog")); err == nil {
			q, err := ParseQuery(string(src), c.output)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if err := Validate(q, c.lang); err != nil {
				t.Errorf("%s: program left its dialect: %v", c.name, err)
			}
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, "query.rq"))
		if err != nil {
			continue
		}
		q, err := ParseSPARQL(string(src))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tr, err := translate.Translate(q.Pattern(), c.regime)
		if err != nil {
			t.Fatalf("%s: translate: %v", c.name, err)
		}
		if err := triq.Validate(tr.Query, triq.TriQLite10); err != nil {
			t.Errorf("%s: translation left TriQ-Lite 1.0: %v", c.name, err)
		}
	}
}
