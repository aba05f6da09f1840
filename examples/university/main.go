// University: a LUBM-style end-to-end walk-through — an OWL 2 QL core
// ontology written in functional-style syntax, SPARQL queries answered
// under the entailment regime (Theorem 5.3), and consistency checking via
// the disjointness constraints of τ_owl2ql_core.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/chase"
)

const ontologySrc = `
% TBox: the usual university vocabulary (DL-LiteR / OWL 2 QL core).
SubClassOf(professor, faculty)
SubClassOf(faculty, employee)
SubClassOf(employee, person)
SubClassOf(student, person)
SubClassOf(professor, ∃teaches)
SubClassOf(∃teaches⁻, course)
SubClassOf(∃advises, professor)
SubClassOf(∃advises⁻, student)
SubObjectPropertyOf(headOf, worksFor)
SubClassOf(∃worksFor⁻, department)
DisjointClasses(person, course)

% ABox
ObjectPropertyAssertion(headOf, ada, cs)
ObjectPropertyAssertion(advises, ada, bob)
ObjectPropertyAssertion(advises, ada, cleo)
ClassAssertion(professor, turing)
`

func main() {
	onto, err := repro.ParseOntology(ontologySrc)
	if err != nil {
		log.Fatal(err)
	}
	g := onto.ToGraph()
	opts := repro.Options{Chase: chase.Options{MaxDepth: 10}}
	ctx := context.Background()

	queries := []string{
		// bob and cleo are persons only via ∃advises⁻ ⊑ student ⊑ person;
		// ada via headOf ⊑ worksFor, ∃worksFor... and ∃advises ⊑ professor.
		`SELECT ?X WHERE { ?X rdf:type person }`,
		// Who works for what (headOf is a subproperty).
		`SELECT ?X ?D WHERE { ?X worksFor ?D }`,
		// Professors teach something: anonymous witness, so ask with a blank.
		`SELECT ?X WHERE { ?X teaches _:C }`,
	}
	for _, src := range queries {
		q, err := repro.ParseSPARQL(src)
		if err != nil {
			log.Fatal(err)
		}
		plain, err := repro.EvalSPARQL(q, g)
		if err != nil {
			log.Fatal(err)
		}
		// Under ⟦·⟧^All even anonymous witnesses count.
		regime, err := repro.Eval(ctx, g, repro.Request{SPARQL: q, Regime: repro.AllRegime, Options: opts})
		if err != nil {
			log.Fatal(err)
		}
		if regime.Inconsistent {
			log.Fatal("unexpected inconsistency")
		}
		fmt.Printf("%s\n  plain:  %d mappings\n  regime: %d mappings %s\n\n",
			src, plain.Len(), regime.Mappings.Len(), regime.Mappings)
	}

	// Now violate the disjointness: a course that is also a person.
	bad, err := repro.ParseOntology(ontologySrc + `
		ClassAssertion(course, bob)
	`)
	if err != nil {
		log.Fatal(err)
	}
	q, _ := repro.ParseSPARQL(`SELECT ?X WHERE { ?X rdf:type person }`)
	res, err := repro.Eval(ctx, bad.ToGraph(), repro.Request{SPARQL: q, Regime: repro.ActiveDomainRegime, Options: opts})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after asserting course(bob): inconsistent = %v (bob is a student via ∃advises⁻, and person ⊓ course ⊑ ⊥)\n", res.Inconsistent)
}
