package translate_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/translate"
	"repro/internal/triq"
)

// The gate for composed programs: a query joined with its regime's library
// (Regime.Join) is checked against the library's cached analysis and compiled
// for its own rules only, and everything that work decides must come out as it
// does for the same rules and constraints checked and compiled from scratch.
// p.Clone() is that program: Clone copies the rules and constraints and not the
// mark Compose leaves, so every check and the chase take the from-scratch path
// on it.

// composedOutcome is what the checks and the chase make of one program.
type composedOutcome struct {
	verdicts []string // Validate, Query.Validate, every dialect, grounded negation
	affected string
	plan     string // strata, program-wide rule order, closable flag
	ground   string // StableGroundCtx: exactness, depth, Stats without times
	chased   string // RunCtx under a small bound: the instance, null names included, and Stats
	keys     string // the Skolem key of every null (negation-free programs only)
}

func errText(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

func statsText(s chase.Stats) string {
	for i := range s.PerRule {
		s.PerRule[i].Time = 0
	}
	return fmt.Sprintf("%+v", s)
}

func outcomeOf(q datalog.Query, db *chase.Instance) composedOutcome {
	p := q.Program
	var o composedOutcome
	o.verdicts = append(o.verdicts, errText(p.Validate()), errText(q.Validate()), errText(datalog.CheckGroundedNegation(p)),
		fmt.Sprint(p.HasExistentials(), p.HasNegation()))
	for d := datalog.AnyDialect; d <= datalog.WardedMinimalInteraction; d++ {
		o.verdicts = append(o.verdicts, errText(datalog.CheckDialect(p, d)))
	}
	for _, lang := range []triq.Language{triq.TriQ10, triq.TriQLite10, triq.Unrestricted} {
		o.verdicts = append(o.verdicts, errText(triq.Validate(q, lang)))
	}
	o.affected = fmt.Sprint(datalog.Analyze(p).AffectedPositions())
	plan, err := chase.PlanOf(p)
	o.plan = fmt.Sprintf("%q %v %s", plan.Strata, plan.Closable, errText(err))
	if err != nil {
		return o
	}
	opts := chase.Options{MaxDepth: 4, MaxFacts: 20_000}
	if gr, err := chase.StableGroundCtx(context.Background(), db, p, opts); gr != nil {
		o.ground = fmt.Sprintf("%v %d %v %s %s", gr.Exact, gr.Depth, gr.Inconsistent, statsText(gr.Stats), errText(err))
	} else {
		o.ground = errText(err)
	}
	opts.MaxDepth = 2
	if res, err := chase.RunCtx(context.Background(), db, p, opts); res != nil {
		o.chased = fmt.Sprintf("%s\n%s %s", res.Instance, statsText(res.Stats), errText(err))
	} else {
		o.chased = errText(err)
	}
	if !p.HasNegation() {
		if inc, err := chase.NewIncremental(context.Background(), db, p, opts); err == nil {
			keys := inc.NullKeys()
			names := make([]string, 0, len(keys))
			for n, k := range keys {
				names = append(names, n+"="+k)
			}
			slices.Sort(names)
			o.keys = strings.Join(names, " ")
		} else {
			o.keys = errText(err)
		}
	}
	return o
}

// requireComposedEquivalent fails the test unless the composed query and its
// from-scratch twin agree on everything composedOutcome records, and reports
// whether the composed path was taken. Both are chased over a copy of db:
// over an untouched load a composed program starts from its library's
// database part instead, which requireLibraryBaseEquivalent holds to this
// path.
func requireComposedEquivalent(t *testing.T, label string, q datalog.Query, db *chase.Instance) bool {
	t.Helper()
	requireLibraryBaseEquivalent(t, label, q, db)
	db = db.Clone()
	scratch := datalog.NewQuery(q.Program.Clone(), q.Output)
	if scratch.Program.Composed() != nil {
		t.Fatalf("%s: a clone of a composed program is marked composed", label)
	}
	got, want := outcomeOf(q, db), outcomeOf(scratch, db)
	if !slices.Equal(got.verdicts, want.verdicts) {
		t.Errorf("%s: verdicts differ\ncomposed: %q\nscratch:  %q", label, got.verdicts, want.verdicts)
	}
	for _, f := range []struct{ name, got, want string }{
		{"affected positions", got.affected, want.affected},
		{"plan", got.plan, want.plan},
		{"ground evaluation", got.ground, want.ground},
		{"chase", got.chased, want.chased},
		{"null keys", got.keys, want.keys},
	} {
		if f.got != f.want {
			t.Errorf("%s: %s differ\ncomposed: %s\nscratch:  %s\nprogram:\n%s", label, f.name, f.got, f.want, q.Program)
		}
	}
	return q.Program.Composed() != nil
}

// requireLibraryBaseEquivalent evaluates the query over db and over db.Clone()
// and fails the test unless the two agree on the answer rows (read off the
// ground part as triq.EvalCtx reads them), Exact, Inconsistent, the depth, the
// number of invented nulls, the error and the whole ground part. Over the
// untouched load db a composed program starts from the fixpoint of its
// library's database part (chase.StableGroundCtx); the copy takes the ordinary
// path, which must not, and the load must do so exactly when the program is
// composed. Answers hold no null, so null names show in neither; the count of
// nulls does. The ground parts are compared without the facts of the
// auxiliary predicates SingleHead names h#n: the fixpoint is built from the
// part's rules as written, and only their single-head pieces, which take no
// turn over it, read those predicates.
func requireLibraryBaseEquivalent(t *testing.T, label string, q datalog.Query, db *chase.Instance) {
	t.Helper()
	eval := func(db *chase.Instance) (string, *chase.LibraryBase) {
		gr, err := chase.StableGroundCtx(context.Background(), db, q.Program, chase.Options{MaxDepth: 4, MaxFacts: 20_000})
		if gr == nil {
			return errText(err), nil
		}
		ans := triq.AnswersOf(gr.Inconsistent, gr.GroundAtomsOf(q.Output))
		out := fmt.Sprintf("%v %v exact=%v depth=%d nulls=%d %s", ans.Inconsistent, ans.Tuples, gr.Exact, gr.Depth, gr.Stats.NullsInvented, errText(err))
		for _, a := range gr.Ground().Sorted() {
			if !strings.HasPrefix(a.Pred, "h#") {
				out += "\n" + a.String()
			}
		}
		return out, gr.LibraryBase
	}
	got, base := eval(db)
	want, cloneBase := eval(db.Clone())
	if got != want {
		t.Errorf("%s: over the library base\n%s\nthe ordinary path\n%s\nprogram:\n%s", label, got, want, q.Program)
	}
	// The load of an empty graph is an empty instance, no load of an encoding.
	onBase := q.Program.Composed() != nil && len(db.AtomsOf("triple")) > 0
	if cloneBase != nil || onBase != (base != nil) {
		t.Errorf("%s: library base %+v over the load and %+v over its copy, want one over the load: %v", label, base, cloneBase, onBase)
	}
}

var regimes = []translate.Regime{translate.ActiveDomain, translate.All, translate.RDFS}

// requireTranslationEquivalent translates the pattern under every regime and
// requires the composed translation to agree with its from-scratch twin over
// the graph; every translation must take the composed path.
func requireTranslationEquivalent(t *testing.T, label string, p sparql.Pattern, g *rdf.Graph) {
	t.Helper()
	db := translate.DB(g)
	for _, r := range regimes {
		tr, err := translate.Translate(p, r)
		if err != nil {
			t.Fatalf("%s under %v: %v", label, r, err)
		}
		if !requireComposedEquivalent(t, fmt.Sprintf("%s under %v", label, r), tr.Query, db) {
			t.Errorf("%s under %v: the translation took the from-scratch path", label, r)
		}
	}
}

func TestComposedMatchesScratchGoldens(t *testing.T) {
	dirs, err := filepath.Glob("../../testdata/golden/university-*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no university goldens: %v", err)
	}
	for _, dir := range dirs {
		src, err := os.ReadFile(filepath.Join(dir, "ontology.owl"))
		if err != nil {
			t.Fatal(err)
		}
		onto, err := owl.ParseOntology(string(src))
		if err != nil {
			t.Fatal(err)
		}
		rq, err := os.ReadFile(filepath.Join(dir, "query.rq"))
		if err != nil {
			t.Fatal(err)
		}
		sq, err := sparql.ParseQuery(string(rq))
		if err != nil {
			t.Fatal(err)
		}
		requireTranslationEquivalent(t, filepath.Base(dir), sq.Pattern(), onto.ToGraph())
		// The CONSTRUCT translation joins the library too; a two-triple
		// template makes its rules multi-head.
		ct, err := translate.TranslateConstruct(&sparql.Query{Kind: sparql.ConstructQuery, Where: sq.Pattern(), Template: []sparql.TriplePattern{
			sparql.TP(sparql.Var("X"), sparql.IRI("rdf:type"), sparql.IRI("found")),
			sparql.TP(sparql.Var("X"), sparql.IRI("seen"), sparql.Blank("B")),
		}}, translate.ActiveDomain)
		if err != nil {
			t.Fatal(err)
		}
		if !requireComposedEquivalent(t, filepath.Base(dir)+" CONSTRUCT", ct.Query, translate.DB(onto.ToGraph())) {
			t.Errorf("%s CONSTRUCT: took the from-scratch path", dir)
		}
	}
}

func TestComposedMatchesScratchMetamorphic(t *testing.T) {
	// TestMetamorphicRegimes's cases: the same seed and generators.
	rng := rand.New(rand.NewSource(6))
	for round := 0; round < 25; round++ {
		p := sparql.And{L: randomPattern(rng, 1), R: randomPattern(rng, 1)}
		if sparql.Validate(p) != nil {
			continue
		}
		g := randomGraph(rng)
		requireTranslationEquivalent(t, fmt.Sprintf("round %d: %s", round, p), p, g)
		requireTranslationEquivalent(t, fmt.Sprintf("round %d swapped", round), sparql.And{L: p.R, R: p.L}, g)
	}
}

func TestComposedMatchesScratchOracleOntologies(t *testing.T) {
	// TestRegimeAgreesWithOracle's ontology and queries, and the animals graph
	// of Section 5.2.
	o := owl.NewOntology().Add(
		owl.SubClassOf(owl.Atom("dog"), owl.Atom("animal")),
		owl.SubClassOf(owl.Atom("animal"), owl.Some(owl.Prop("eats"))),
		owl.SubPropertyOf(owl.Prop("feeds_on"), owl.Prop("eats")),
		owl.ClassAssertion(owl.Atom("dog"), "rex"),
		owl.PropertyAssertion("feeds_on", "bess", "grass"),
	)
	for _, g := range []*rdf.Graph{o.ToGraph(), animalsGraph()} {
		for _, b := range o.BasicClasses() {
			requireTranslationEquivalent(t, "class "+b.URI(), sparql.BGP{Triples: []sparql.TriplePattern{
				sparql.TP(sparql.Var("X"), sparql.IRI("rdf:type"), sparql.IRI(b.URI())),
			}}, g)
		}
		for _, prop := range o.BasicProperties() {
			requireTranslationEquivalent(t, "property "+prop.URI(), sparql.BGP{Triples: []sparql.TriplePattern{
				sparql.TP(sparql.Var("X"), sparql.IRI(prop.URI()), sparql.Var("Y")),
			}}, g)
		}
	}
}

// libraryPreds are the library predicates a random query program reads, with
// their arities; defines are the ones its rules may also define, which must
// send the program the from-scratch way.
type predArity struct {
	name  string
	arity int
}

var (
	libraryPreds = map[string][]predArity{
		"owl2ql": {{"triple", 3}, {"triple1", 3}, {"type", 2}, {"sc", 2}, {"sp", 2}, {"C", 1}, {"restriction", 2}},
		"rdfs":   {{"triple", 3}, {"triple1", 3}, {"C", 1}},
	}
	libraryDefines = []predArity{{"type", 2}, {"sc", 2}, {"triple1", 3}}
)

// randomQueryProgram writes a random query program over a library's
// predicates: rules over query predicates q0–q2 with positive and negated
// bodies, existentials and constraints, an output rule, and now and then a
// defect — an unsafe negated variable, a predicate at the wrong arity, the
// output read in a body, a cycle through negation — or a rule that defines a
// library predicate.
func randomQueryProgram(rng *rand.Rand, lib string) (prog *datalog.Program, definesLibrary bool) {
	own := []predArity{{"q0", 1}, {"q1", 2}, {"q2", 2}}
	vars := []string{"?X", "?Y", "?Z"}
	consts := []string{"rdf:type", "person", "a", "b"}
	term := func() string {
		if rng.Intn(5) == 0 {
			return consts[rng.Intn(len(consts))]
		}
		return vars[rng.Intn(len(vars))]
	}
	atom := func(name string, arity int) string {
		args := make([]string, arity)
		for i := range args {
			args[i] = term()
		}
		return name + "(" + strings.Join(args, ", ") + ")"
	}
	bodyAtom := func() string {
		if rng.Intn(3) == 0 {
			o := own[rng.Intn(len(own))]
			return atom(o.name, o.arity)
		}
		l := libraryPreds[lib][rng.Intn(len(libraryPreds[lib]))]
		arity := l.arity
		if rng.Intn(40) == 0 {
			arity++ // the library's predicate at another arity
		}
		return atom(l.name, arity)
	}
	varsOf := func(atoms ...string) []string {
		var out []string
		for _, v := range vars {
			for _, a := range atoms {
				if strings.Contains(a, v) && !slices.Contains(out, v) {
					out = append(out, v)
				}
			}
		}
		return out
	}
	var b strings.Builder
	for range 1 + rng.Intn(4) {
		body := []string{bodyAtom()}
		if rng.Intn(2) == 0 {
			body = append(body, bodyAtom())
		}
		bv := varsOf(body...)
		if rng.Intn(4) == 0 {
			neg := own[rng.Intn(len(own))]
			if rng.Intn(2) == 0 {
				l := libraryPreds[lib][rng.Intn(len(libraryPreds[lib]))]
				neg.name, neg.arity = l.name, l.arity
			}
			args := make([]string, neg.arity)
			for i := range args {
				switch {
				case len(bv) > 0 && rng.Intn(15) != 0:
					args[i] = bv[rng.Intn(len(bv))]
				default:
					args[i] = consts[rng.Intn(len(consts))]
				}
			}
			body = append(body, "not "+neg.name+"("+strings.Join(args, ", ")+")")
		}
		head := own[rng.Intn(len(own))]
		if rng.Intn(12) == 0 {
			d := libraryDefines[rng.Intn(len(libraryDefines))]
			head.name, head.arity = d.name, d.arity
			definesLibrary = definesLibrary || slices.Contains(libraryPreds[lib], d)
		}
		args := make([]string, head.arity)
		for i := range args {
			switch {
			case len(bv) > 0 && rng.Intn(6) != 0:
				args[i] = bv[rng.Intn(len(bv))]
			case rng.Intn(3) == 0:
				args[i] = "a"
			default:
				args[i] = "?N" // existential
			}
		}
		heads := head.name + "(" + strings.Join(args, ", ") + ")"
		if rng.Intn(8) == 0 && len(bv) > 0 {
			heads += ", q0(" + bv[0] + ")" // a multi-head rule
		}
		fmt.Fprintf(&b, "%s -> %s.\n", strings.Join(body, ", "), heads)
	}
	if rng.Intn(5) == 0 {
		fmt.Fprintf(&b, "q0(?X), %s -> false.\n", atom("type", 2))
	}
	if rng.Intn(20) == 0 {
		b.WriteString("q1(?X, ?Y), not q2(?X, ?Y) -> q2(?Y, ?X).\n") // a cycle through negation
	}
	out := "q0(?X) -> query(?X).\n"
	if rng.Intn(25) == 0 {
		out += "query(?X) -> q0(?X).\n" // the output read in a body
	}
	b.WriteString(out)
	prog = datalog.MustParse(b.String())
	if rng.Intn(30) == 0 {
		// The parser refuses a negated variable the positive body lacks.
		r := &prog.Rules[0]
		r.BodyNeg = append(r.BodyNeg, datalog.NewAtom("q0", datalog.V("W")))
	}
	return prog, definesLibrary
}

// TestComposedMatchesScratchRandom joins 200 random query programs with each
// library, both after the query's rules (a translation) and before them (a
// hand-written regime request). Replay one program with TRIQ_DIFF_SEED=<n>.
func TestComposedMatchesScratchRandom(t *testing.T) {
	o := owl.NewOntology().Add(
		owl.SubClassOf(owl.Atom("professor"), owl.Atom("person")),
		owl.SubClassOf(owl.Atom("professor"), owl.Some(owl.Prop("teaches"))),
		owl.SubPropertyOf(owl.Prop("headOf"), owl.Prop("worksFor")),
		owl.DisjointClasses(owl.Atom("person"), owl.Atom("course")),
		owl.ClassAssertion(owl.Atom("professor"), "a"),
		owl.PropertyAssertion("headOf", "a", "b"),
	)
	g := o.ToGraph()
	g.Add(rdf.T("b", "rdfs:subClassOf", "person"), rdf.T("c", "rdf:type", "b"))
	db := translate.DB(g)
	seeds := make([]int64, 200)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	if env := os.Getenv("TRIQ_DIFF_SEED"); env != "" {
		s, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad TRIQ_DIFF_SEED %q: %v", env, err)
		}
		seeds = []int64{s}
	}
	for _, lib := range []struct {
		name   string
		regime translate.Regime
	}{{"owl2ql", translate.ActiveDomain}, {"rdfs", translate.RDFS}} {
		composed, fallback := 0, 0
		for _, seed := range seeds {
			prog, definesLibrary := randomQueryProgram(rand.New(rand.NewSource(seed)), lib.name)
			src := prog.String()
			for _, first := range []bool{false, true} {
				label := fmt.Sprintf("%s seed %d library first %v", lib.name, seed, first)
				joined := datalog.NewQuery(lib.regime.Join(prog, first, ""), "query")
				took := requireComposedEquivalent(t, label, joined, db)
				if t.Failed() {
					t.Logf("replay: TRIQ_DIFF_SEED=%d go test -run TestComposedMatchesScratchRandom ./internal/translate\nprogram:\n%s", seed, src)
					return
				}
				// A program valid from scratch, none of whose rules defines a library
				// predicate, must take the composed path; one that defines one must not.
				// So must one whose multi-head query rules, single-headed ahead of the
				// library's, would give the library's a fresh predicate of another name.
				valid := triq.Validate(datalog.NewQuery(joined.Program.Clone(), "query"), triq.Unrestricted) == nil
				renames := !first && prog.HasNegation() && slices.ContainsFunc(prog.Rules, func(r datalog.Rule) bool { return len(r.Head) > 1 })
				switch {
				case definesLibrary && took:
					t.Fatalf("%s: defines a library predicate but took the composed path\n%s", label, src)
				case renames && took:
					t.Fatalf("%s: renames the library's fresh predicates but took the composed path\n%s", label, src)
				case !definesLibrary && !renames && valid && !took:
					t.Fatalf("%s: valid but took the from-scratch path\n%s", label, src)
				}
				if took {
					composed++
				} else {
					fallback++
				}
			}
		}
		t.Logf("%s: %d composed, %d from scratch", lib.name, composed, fallback)
		if len(seeds) > 1 && (composed < len(seeds)/2 || fallback == 0) {
			t.Errorf("%s: %d composed and %d from scratch; the generator should exercise both", lib.name, composed, fallback)
		}
	}
}

// TestRegimeFirstRequestConcurrent races 32 goroutines on the first regime
// requests over one graph — SELECT and CONSTRUCT translations and a
// hand-written program, under U, All and RDFS — while the libraries' compiled
// forms are built and first shared, and while the first requests over the
// graph's encoding build the fixpoint of each library's database part, and
// checks every answer against a sequential run afterwards. The graph is new on
// every run of the test, and a library made in the test (not the process's
// own) is raced into its first compile on every run, also under -count. Each
// fixpoint is built once: for τ_owl2ql_core (U and All share it), for ρdf and
// for the test's own library, three builds.
func TestRegimeFirstRequestConcurrent(t *testing.T) {
	src, err := os.ReadFile("../../testdata/golden/university-worksfor/ontology.owl")
	if err != nil {
		t.Fatal(err)
	}
	onto, err := owl.ParseOntology(string(src))
	if err != nil {
		t.Fatal(err)
	}
	g := onto.ToGraph()
	sel := sparql.MustParseQuery(`SELECT ?X ?Y WHERE { ?X worksFor ?Y . OPTIONAL { ?X rdf:type professor } }`)
	con := sparql.MustParseQuery(`CONSTRUCT { ?X rdf:type found } WHERE { ?X rdf:type person }`)
	fresh := datalog.NewLibrary(owl.Program())
	hand := datalog.MustParse(`type(?X, person), C(?X), not type(?X, student) -> query(?X).`)
	if datalog.Compose(hand, fresh, true, "").Composed() == nil {
		t.Fatal("the hand-written program takes the from-scratch path")
	}
	o := obs.New()
	type request func() (string, error)
	var requests []request
	for _, regime := range regimes {
		requests = append(requests,
			func() (string, error) {
				resp, err := repro.Eval(context.Background(), g, repro.Request{SPARQL: sel, Regime: regime,
					Options: repro.Options{Chase: chase.Options{Obs: o}}})
				if err != nil {
					return "", err
				}
				rows := resp.Rows()
				slices.Sort(rows)
				return fmt.Sprint(resp.Inconsistent, rows), nil
			},
			func() (string, error) {
				ct, err := translate.TranslateConstruct(con, regime)
				if err != nil {
					return "", err
				}
				out, inconsistent, err := ct.Evaluate(g, triq.Options{})
				if err != nil {
					return "", err
				}
				var triples []string
				for _, tr := range out.Triples() {
					triples = append(triples, tr.String())
				}
				slices.Sort(triples)
				return fmt.Sprint(inconsistent, triples), nil
			})
	}
	requests = append(requests, func() (string, error) {
		q := datalog.NewQuery(datalog.Compose(hand, fresh, true, ""), "query")
		res, err := triq.EvalCtx(context.Background(), translate.DB(g), q, triq.TriQLite10, triq.Options{Chase: chase.Options{Obs: o}})
		if err != nil {
			return "", err
		}
		return fmt.Sprint(res.Answers.Inconsistent, res.Answers.Tuples, res.Stats.FactsDerived, res.Stats.NullsInvented), nil
	})
	const goroutines = 32
	got := make([]string, goroutines)
	var wg sync.WaitGroup
	for i := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := requests[i%len(requests)]()
			if err != nil {
				t.Error(err)
			}
			got[i] = out
		}()
	}
	wg.Wait()
	if builds := o.Registry().Counter("chase.library_base_builds"); builds != 3 {
		t.Errorf("the racing first requests built %d library bases, want 3", builds)
	}
	for i := range goroutines {
		want, err := requests[i%len(requests)]()
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("goroutine %d: concurrent first request answered\n%s\nthe sequential run\n%s", i, got[i], want)
		}
	}
}

// TestLibraryBaseRandom holds 200 random patterns, each over a random graph
// of OWL 2 QL axioms and data, to the ordinary path under every regime: over
// the untouched load the composed translation starts from its library's
// database part, over a copy it chases the whole program
// (requireLibraryBaseEquivalent).
func TestLibraryBaseRandom(t *testing.T) {
	axioms := []owl.Axiom{
		owl.SubClassOf(owl.Atom("a"), owl.Atom("b")),
		owl.SubClassOf(owl.Atom("b"), owl.Some(owl.Prop("p"))),
		owl.SubClassOf(owl.Some(owl.Inv("q")), owl.Atom("c")),
		owl.SubPropertyOf(owl.Prop("p"), owl.Prop("q")),
		owl.SubPropertyOf(owl.Inv("q"), owl.Prop("p")),
		owl.DisjointClasses(owl.Atom("a"), owl.Atom("c")),
		owl.DisjointProperties(owl.Prop("p"), owl.Inv("q")),
		owl.ClassAssertion(owl.Atom("a"), "d"),
		owl.ClassAssertion(owl.Some(owl.Prop("q")), "c"),
		owl.PropertyAssertion("p", "a", "b"),
	}
	typed := sparql.BGP{Triples: []sparql.TriplePattern{sparql.TP(sparql.Var("A"), sparql.IRI("rdf:type"), sparql.IRI("b"))}}
	rng := rand.New(rand.NewSource(51))
	for round := range 200 {
		o := owl.NewOntology()
		for _, ax := range axioms {
			if rng.Intn(3) != 0 {
				o.Add(ax)
			}
		}
		g := o.ToGraph()
		g.Add(randomGraph(rng).Triples()...)
		p := randomPattern(rng, 2)
		if rng.Intn(3) == 0 {
			p = sparql.And{L: p, R: typed}
		}
		db := translate.DB(g)
		for _, r := range regimes {
			tr, err := translate.Translate(p, r)
			if err != nil {
				t.Fatalf("round %d: %s under %v: %v", round, p, r, err)
			}
			requireLibraryBaseEquivalent(t, fmt.Sprintf("round %d: %s under %v", round, p, r), tr.Query, db)
		}
		if t.Failed() {
			t.Fatalf("round %d over\n%s", round, g)
		}
	}
}
