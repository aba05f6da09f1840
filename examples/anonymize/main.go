// Anonymize: the Section 2 privacy example — replacing every subject URI by
// a blank node. Crucially, the SAME blank node must be used for every triple
// of a given subject, which the local blank-node semantics of SPARQL's
// CONSTRUCT cannot express, but a TriQ existential rule can.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	g, err := repro.ParseGraph(`
		alice worksAt acme .
		alice email "alice@example.org" .
		bob worksAt initech .
	`)
	if err != nil {
		log.Fatal(err)
	}

	// First, the CONSTRUCT attempt: one fresh blank node per match, so
	// alice's two triples get DIFFERENT blanks — linkage is destroyed.
	construct, err := repro.ParseSPARQL(`
		CONSTRUCT { _:B ?P ?O } WHERE { ?S ?P ?O }
	`)
	if err != nil {
		log.Fatal(err)
	}
	viaConstruct, err := repro.Construct(construct, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("CONSTRUCT (local blanks — alice's triples are unlinked):")
	fmt.Println(viaConstruct)

	// The paper's program: one blank node per subject, shared across all of
	// that subject's triples.
	q, err := repro.ParseQuery(`
		triple(?X, ?Y, ?Z) -> subj(?X).
		subj(?X) -> exists ?Y bn(?X, ?Y).
		triple(?X, ?Y, ?Z), bn(?X, ?U) -> out(?U, ?Y, ?Z).
		out(?U, ?Y, ?Z) -> query(?Y, ?Z).
	`, "query")
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.Validate(q, repro.TriQLite10); err != nil {
		log.Fatal(err)
	}
	res, err := repro.Eval(context.Background(), g, repro.Request{Query: q, Language: repro.TriQLite10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("anonymized predicate/object pairs (subjects hidden):")
	for _, row := range res.Rows() {
		fmt.Println(" ", row)
	}
	fmt.Println("\n(the out(·,·,·) relation itself holds one shared blank node per subject,")
	fmt.Println(" preserving linkage — see TestChaseAnonymizationGlobalBlankNodes)")
}
