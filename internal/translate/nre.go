package translate

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triq"
)

// This file translates nSPARQL nested regular expressions into plain Datalog
// — the "Datalog version L_dat" of the navigational languages that
// Corollary 7.3 compares with TriQ-Lite 1.0. Every NRE compiles to a
// stratification-free (indeed negation-free) Datalog program computing a
// binary relation over τ_db(G), so nSPARQL ⊆ Datalog^{¬s,⊥} executably; the
// Pep separation from TriQ-Lite 1.0 is then Theorem 7.2.

// NRETranslation is a compiled nested regular expression.
type NRETranslation struct {
	// Query is the Datalog query (Π, nre_answer) with a binary output.
	Query datalog.Query
}

// nreCompiler assigns one binary predicate per sub-expression.
type nreCompiler struct {
	prog    *datalog.Program
	nextID  int
	hasTerm bool
}

func (c *nreCompiler) fresh() string {
	c.nextID++
	return fmt.Sprintf("nre%d", c.nextID)
}

// termPred lazily emits the rules collecting all graph terms (needed by the
// reflexive closure of * and by the bare self axis).
func (c *nreCompiler) termPred() string {
	if !c.hasTerm {
		c.hasTerm = true
		c.prog.Merge(datalog.MustParse(`
			triple(?X, ?Y, ?Z) -> nreterm(?X), nreterm(?Y), nreterm(?Z).
		`))
	}
	return "nreterm"
}

// TranslateNRE compiles a nested regular expression into a Datalog query
// over the schema {triple/3}; the output predicate holds the pairs of
// ⟦e⟧_G.
func TranslateNRE(e sparql.NRE) (*NRETranslation, error) {
	c := &nreCompiler{prog: &datalog.Program{}}
	pred, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	x, y := datalog.V("X"), datalog.V("Y")
	c.prog.Add(datalog.Rule{
		BodyPos: []datalog.Atom{datalog.NewAtom(pred, x, y)},
		Head:    []datalog.Atom{datalog.NewAtom("nre_answer", x, y)},
	})
	q := datalog.NewQuery(c.prog, "nre_answer")
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("translate: internal: %w", err)
	}
	return &NRETranslation{Query: q}, nil
}

func (c *nreCompiler) compile(e sparql.NRE) (string, error) {
	x, y, z := datalog.V("X"), datalog.V("Y"), datalog.V("Z")
	switch q := e.(type) {
	case sparql.NREStep:
		pred := c.fresh()
		from, to := x, y
		if q.Inverse {
			from, to = y, x
		}
		head := datalog.NewAtom(pred, x, y)
		if q.Axis == sparql.AxisSelf {
			var body []datalog.Atom
			switch {
			case q.Label != nil:
				// self::a = {(a,a)}; anchor it to the active domain so the
				// rule stays safe even though both positions are constant.
				la := owl.TermConst(*q.Label)
				c.prog.Add(datalog.Rule{
					BodyPos: []datalog.Atom{datalog.NewAtom(c.termPred(), datalog.V("T"))},
					Head:    []datalog.Atom{datalog.NewAtom(pred, la, la)},
				})
				return pred, nil
			case q.Test != nil:
				inner, err := c.compile(q.Test)
				if err != nil {
					return "", err
				}
				body = []datalog.Atom{datalog.NewAtom(inner, x, datalog.V("W"))}
				c.prog.Add(datalog.Rule{
					BodyPos: body,
					Head:    []datalog.Atom{datalog.NewAtom(pred, x, x)},
				})
				return pred, nil
			default:
				c.prog.Add(datalog.Rule{
					BodyPos: []datalog.Atom{datalog.NewAtom(c.termPred(), x)},
					Head:    []datalog.Atom{datalog.NewAtom(pred, x, x)},
				})
				return pred, nil
			}
		}
		// For the moving axes, (from, over, to) positions in triple(s,p,o):
		var s, p, o datalog.Term
		var over datalog.Term
		switch q.Axis {
		case sparql.AxisNext: // subject → object over predicate
			s, p, o = from, z, to
			over = z
		case sparql.AxisEdge: // subject → predicate over object
			s, p, o = from, to, z
			over = z
		case sparql.AxisNode: // predicate → object over subject
			s, p, o = z, from, to
			over = z
		default:
			return "", fmt.Errorf("translate: unknown NRE axis %v", q.Axis)
		}
		body := []datalog.Atom{datalog.NewAtom("triple", s, p, o)}
		switch {
		case q.Label != nil:
			// Substitute the label constant for the over-variable.
			la := owl.TermConst(*q.Label)
			sub := map[datalog.Term]datalog.Term{over: la}
			body[0] = body[0].Substitute(sub)
		case q.Test != nil:
			inner, err := c.compile(q.Test)
			if err != nil {
				return "", err
			}
			body = append(body, datalog.NewAtom(inner, over, datalog.V("W")))
		}
		c.prog.Add(datalog.Rule{BodyPos: body, Head: []datalog.Atom{head}})
		return pred, nil

	case sparql.NRESeq:
		l, err := c.compile(q.L)
		if err != nil {
			return "", err
		}
		r, err := c.compile(q.R)
		if err != nil {
			return "", err
		}
		pred := c.fresh()
		c.prog.Add(datalog.Rule{
			BodyPos: []datalog.Atom{datalog.NewAtom(l, x, z), datalog.NewAtom(r, z, y)},
			Head:    []datalog.Atom{datalog.NewAtom(pred, x, y)},
		})
		return pred, nil

	case sparql.NREAlt:
		l, err := c.compile(q.L)
		if err != nil {
			return "", err
		}
		r, err := c.compile(q.R)
		if err != nil {
			return "", err
		}
		pred := c.fresh()
		c.prog.Add(datalog.Rule{
			BodyPos: []datalog.Atom{datalog.NewAtom(l, x, y)},
			Head:    []datalog.Atom{datalog.NewAtom(pred, x, y)},
		})
		c.prog.Add(datalog.Rule{
			BodyPos: []datalog.Atom{datalog.NewAtom(r, x, y)},
			Head:    []datalog.Atom{datalog.NewAtom(pred, x, y)},
		})
		return pred, nil

	case sparql.NREStar:
		inner, err := c.compile(q.P)
		if err != nil {
			return "", err
		}
		pred := c.fresh()
		// e* = identity on the graph terms ∪ e ∪ e∘e ∪ …; the inner relation
		// is included directly so that pairs outside the active domain (e.g.
		// self::a with a fresh constant) are not lost.
		c.prog.Add(datalog.Rule{
			BodyPos: []datalog.Atom{datalog.NewAtom(c.termPred(), x)},
			Head:    []datalog.Atom{datalog.NewAtom(pred, x, x)},
		})
		c.prog.Add(datalog.Rule{
			BodyPos: []datalog.Atom{datalog.NewAtom(inner, x, y)},
			Head:    []datalog.Atom{datalog.NewAtom(pred, x, y)},
		})
		c.prog.Add(datalog.Rule{
			BodyPos: []datalog.Atom{datalog.NewAtom(pred, x, z), datalog.NewAtom(inner, z, y)},
			Head:    []datalog.Atom{datalog.NewAtom(pred, x, y)},
		})
		return pred, nil

	default:
		return "", fmt.Errorf("translate: unknown NRE type %T", e)
	}
}

// Evaluate runs the translated NRE over a graph and decodes the pair set.
func (tr *NRETranslation) Evaluate(g *rdf.Graph, opts triq.Options) (sparql.PairSet, error) {
	res, err := triq.Eval(DB(g), tr.Query, triq.TriQLite10, opts)
	if err != nil {
		return nil, err
	}
	out := make(sparql.PairSet)
	for _, tup := range res.Answers.Tuples {
		out[sparql.TermPair{DecodeTerm(tup[0].Name), DecodeTerm(tup[1].Name)}] = true
	}
	return out, nil
}
