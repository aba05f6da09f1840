package translate

import (
	"fmt"
	"strconv"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triq"
)

// This file translates CONSTRUCT queries into triple-producing rules, as in
// rule (3) of Section 2: the user "simply replaces the predicate query(·) by
// the predicate triple(·,·,·)" — here a dedicated output predicate, so the
// translation composes (Section 2's compositionality discussion) without
// accidentally feeding its own output back into the match. Template blank
// nodes become existentially quantified head variables, which reproduces the
// fresh-blank-per-match semantics of CONSTRUCT under the Skolem chase: the
// invented null is a function of the match's frontier.

// ConstructPred is the output predicate of CONSTRUCT translations.
const ConstructPred = "construct"

// ConstructTranslation is a compiled CONSTRUCT query.
type ConstructTranslation struct {
	// Query is the Datalog^{∃,¬s,⊥} query (Π, construct).
	Query datalog.Query
	// Regime records the semantics of the WHERE clause.
	Regime Regime
}

// TranslateConstruct compiles a CONSTRUCT query.
func TranslateConstruct(q *sparql.Query, regime Regime) (*ConstructTranslation, error) {
	if q.Kind != sparql.ConstructQuery {
		return nil, fmt.Errorf("translate: not a CONSTRUCT query")
	}
	if err := sparql.Validate(q.Where); err != nil {
		return nil, err
	}
	c := &compiler{regime: regime, prog: &datalog.Program{}}
	node, err := c.compile(q.Where)
	if err != nil {
		return nil, err
	}
	// One rule group per domain: instantiate the template triples whose
	// variables are all bound under d; blanks become shared existential
	// variables. SPARQL requires a FRESH blank node per solution mapping
	// (not merely per distinct template projection), so when the template
	// has blanks the rule first derives an auxiliary atom carrying the full
	// domain — making the invented null a Skolem function of the whole
	// mapping — and projection rules then emit the triples.
	for di, d := range node.domains {
		blankVars := make(map[string]datalog.Term)
		nextBlank := 0
		var head []datalog.Atom
		for _, tp := range q.Template {
			atomArgs := make([]datalog.Term, 0, 3)
			ok := true
			for _, term := range tp.Terms() {
				switch {
				case term.IsVar:
					if !d.has(term.Var) {
						ok = false
					} else {
						atomArgs = append(atomArgs, datalog.V(term.Var))
					}
				case term.IsBlank():
					v, have := blankVars[term.Term.Value]
					if !have {
						v = datalog.V("?_t" + strconv.Itoa(nextBlank))
						nextBlank++
						blankVars[term.Term.Value] = v
					}
					atomArgs = append(atomArgs, v)
				default:
					atomArgs = append(atomArgs, owl.TermConst(term.Term))
				}
			}
			if ok {
				head = append(head, datalog.Atom{Pred: ConstructPred, Args: atomArgs})
			}
		}
		if len(head) == 0 {
			continue
		}
		if len(blankVars) == 0 {
			c.prog.Add(datalog.Rule{
				BodyPos: []datalog.Atom{node.atom(d)},
				Head:    head,
			})
			continue
		}
		auxArgs := make([]datalog.Term, 0, len(d)+len(blankVars))
		for _, v := range d {
			auxArgs = append(auxArgs, datalog.V(v))
		}
		for i := 0; i < nextBlank; i++ {
			auxArgs = append(auxArgs, datalog.V("?_t"+strconv.Itoa(i)))
		}
		aux := datalog.Atom{Pred: fmt.Sprintf("cmatch%d", di), Args: auxArgs}
		c.prog.Add(datalog.Rule{
			BodyPos: []datalog.Atom{node.atom(d)},
			Head:    []datalog.Atom{aux},
		})
		c.prog.Add(datalog.Rule{
			BodyPos: []datalog.Atom{aux},
			Head:    head,
		})
	}
	if c.needEq {
		c.emitEqRules()
	}
	if fixed := regime.Program(); fixed != nil {
		c.prog.Merge(fixed)
	}
	query := datalog.NewQuery(c.prog, ConstructPred)
	if err := query.Validate(); err != nil {
		return nil, fmt.Errorf("translate: internal: %w", err)
	}
	return &ConstructTranslation{Query: query, Regime: regime}, nil
}

// Evaluate runs the translated CONSTRUCT over a graph and decodes the output
// relation into an RDF graph; invented nulls become blank nodes. The boolean
// reports ⊤ under the entailment regimes.
func (ct *ConstructTranslation) Evaluate(g *rdf.Graph, opts triq.Options) (*rdf.Graph, bool, error) {
	res, err := chase.Run(DB(g), ct.Query.Program, opts.Chase)
	if err != nil {
		return nil, false, err
	}
	if res.Inconsistent {
		return nil, true, nil
	}
	out := rdf.NewGraph()
	for _, a := range res.Instance.AtomsOf(ConstructPred) {
		if a.Arity() != 3 {
			continue
		}
		out.Add(rdf.NewTriple(decodeAny(a.Args[0]), decodeAny(a.Args[1]), decodeAny(a.Args[2])))
	}
	return out, false, nil
}

func decodeAny(t datalog.Term) rdf.Term {
	if t.IsNull() {
		return rdf.NewBlank(t.Name)
	}
	return DecodeTerm(t.Name)
}
