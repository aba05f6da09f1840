package owl

import (
	"repro/internal/datalog"
	"repro/internal/rdf"
)

// ProgramSrc is the source of the fixed Datalog^{∃,⊥} program τ_owl2ql_core
// of Section 5.2, which encodes the OWL 2 QL core direct semantics
// entailment regime. It is fixed once and for all: posing a new query never
// requires touching it — the property Section 7 turns into the
// program-expressive-power separation.
const ProgramSrc = `
% τ_owl2ql_core — Section 5.2 of the paper, verbatim (modulo the corrected
% OWL spelling owl:someValuesFrom).

% Active domain: all URIs of the graph.
triple(?X, ?Y, ?Z) -> C(?X), C(?Y), C(?Z).

% Ontology element extraction.
triple(?X, rdf:type, ?Y) -> type(?X, ?Y).
triple(?X, rdfs:subPropertyOf, ?Y) -> sp(?X, ?Y).
triple(?X, owl:inverseOf, ?Y) -> inv(?X, ?Y).
triple(?X, rdf:type, owl:Restriction),
	triple(?X, owl:onProperty, ?Y),
	triple(?X, owl:someValuesFrom, owl:Thing) -> restriction(?X, ?Y).
triple(?X, rdfs:subClassOf, ?Y) -> sc(?X, ?Y).
triple(?X, owl:disjointWith, ?Y) -> disj(?X, ?Y).
triple(?X, owl:propertyDisjointWith, ?Y) -> disj_property(?X, ?Y).
triple(?X, ?Y, ?Z) -> triple1(?X, ?Y, ?Z).

% Reasoning about properties.
%
% Deviation from the paper's listing: the reflexivity rules below read from
% the extensional predicate triple rather than from the derived predicate
% type. With the paper's version, type[1] is an affected position (nulls
% reach it through the restriction rule), which contaminates sp[1]/sp[2] and
% sc[1]/sc[2] and makes the two transitivity rules violate (weak-frontier-)
% guardedness — contradicting Corollaries 5.4/6.2. On graphs that represent
% OWL 2 QL core ontologies the two versions agree: owl:ObjectProperty and
% owl:Class typings occur only as explicit vocabulary triples and are never
% derived.
sp(?X1, ?X2), inv(?Y1, ?X1), inv(?Y2, ?X2) -> sp(?Y1, ?Y2).
triple(?X, rdf:type, owl:ObjectProperty) -> sp(?X, ?X).
sp(?X, ?Y), sp(?Y, ?Z) -> sp(?X, ?Z).

% Reasoning about classes.
sp(?X1, ?X2), restriction(?Y1, ?X1), restriction(?Y2, ?X2) -> sc(?Y1, ?Y2).
triple(?X, rdf:type, owl:Class) -> sc(?X, ?X).
sc(?X, ?Y), sc(?Y, ?Z) -> sc(?X, ?Z).

% Reasoning about disjointness.
disj(?X1, ?X2), sc(?Y1, ?X1), sc(?Y2, ?X2) -> disj(?Y1, ?Y2).
disj_property(?X1, ?X2), sp(?Y1, ?X1), sp(?Y2, ?X2) -> disj_property(?Y1, ?Y2).

% Reasoning about membership assertions.
triple1(?X, ?U, ?Y), sp(?U, ?V) -> triple1(?X, ?V, ?Y).
triple1(?X, ?U, ?Y), inv(?U, ?V) -> triple1(?Y, ?V, ?X).
type(?X, ?Y), restriction(?Y, ?U) -> exists ?Z triple1(?X, ?U, ?Z).
type(?X, ?Y) -> triple1(?X, rdf:type, ?Y).
type(?X, ?Y), sc(?Y, ?Z) -> type(?X, ?Z).
triple1(?X, ?U, ?Y), restriction(?Z, ?U) -> type(?X, ?Z).
type(?X, ?Y), type(?X, ?Z), disj(?Y, ?Z) -> false.
triple1(?X, ?U, ?Y), triple1(?X, ?V, ?Y), disj_property(?U, ?V) -> false.
`

// Program parses τ_owl2ql_core. The program is warded with no negation, so
// it is (the rule part of) a TriQ-Lite 1.0 query for any output rules added
// on top.
func Program() *datalog.Program {
	return datalog.MustParse(ProgramSrc)
}

// GraphToDB converts an RDF graph into the database τ_db(G) over the
// relational schema {triple(·,·,·)} (Section 5.1). Non-IRI terms (literals,
// blank nodes) are admitted as constants by their lexical rendering, so
// realistic data loads; the paper's formal development assumes URI-only
// graphs.
//
// The atoms come in the graph's canonical order, which the chase's trigger
// order and so the names of its nulls depend on. Their argument lists are
// carved from one slab, each with no spare capacity, so appending to one
// atom's Args never reaches its neighbour's.
func GraphToDB(g *rdf.Graph) []datalog.Atom {
	triples := g.Canonical()
	out := make([]datalog.Atom, len(triples))
	slab := make([]datalog.Term, 3*len(triples))
	for i, t := range triples {
		out[i] = tripleAtom(t, slab[3*i:3*i+3:3*i+3])
	}
	return out
}

// TripleAtom converts one RDF triple into its τ_db atom triple(s, p, o).
// The incremental materialization layer uses it to turn store delta batches
// into EDB deltas; because it is the same encoding GraphToDB uses per triple,
// folding the deltas of a graph reaches exactly the database GraphToDB would
// build from the final graph.
func TripleAtom(t rdf.Triple) datalog.Atom { return tripleAtom(t, make([]datalog.Term, 3)) }

// tripleAtom is the encoding itself, into the three argument slots given.
func tripleAtom(t rdf.Triple, args []datalog.Term) datalog.Atom {
	args[0], args[1], args[2] = TermConst(t.S), TermConst(t.P), TermConst(t.O)
	return datalog.Atom{Pred: "triple", Args: args}
}

// TermConst maps an RDF term to a Datalog constant: an IRI to its bare value,
// a blank node to its label behind "_:", a literal to its N-Triples rendering,
// so that an IRI and a literal with the same lexical form stay distinct.
// translate.DecodeTerm inverts it.
func TermConst(t rdf.Term) datalog.Term {
	switch t.Kind {
	case rdf.IRI:
		return datalog.C(t.Value)
	case rdf.Blank:
		// Blank nodes are treated as constants when loading data (the
		// paper's graphs are blank-node-free; see footnote 5).
		return datalog.C("_:" + t.Value)
	default:
		return datalog.C(t.String())
	}
}
