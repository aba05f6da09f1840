// Quickstart: the Section 2 walk-through of the paper — querying authors,
// producing RDF as output, inventing anonymous resources with existential
// rules, and encoding owl:sameAs reasoning as a reusable rule library.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// The graph G4 of Section 2: two URIs for Jeffrey Ullman, linked by
	// owl:sameAs.
	g, err := repro.ParseGraph(`
		dbUllman is_author_of "The Complete Book" .
		dbUllman owl:sameAs yagoUllman .
		yagoUllman name "Jeffrey Ullman" .
		dbAho is_coauthor_of dbUllman .
		dbAho name "Alfred Aho" .
	`)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Query (2): the author list. Without sameAs reasoning it is empty,
	// because the authorship and the name use different URIs.
	authors := `
		triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> query(?X).
	`
	q, err := repro.ParseQuery(authors, "query")
	if err != nil {
		log.Fatal(err)
	}
	res, err := repro.Eval(ctx, g, repro.Request{Query: q, Language: repro.TriQLite10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("authors without the sameAs library:", res.Rows())

	// Section 2: "all these problems can be solved by incorporating a fixed
	// set of rules encoding the semantics of owl:sameAs". The library is
	// plain Datalog, so the combined query is still TriQ-Lite 1.0.
	sameAsLibrary := `
		% owl:sameAs is symmetric and transitive, and propagates triples.
		triple(?X, owl:sameAs, ?Y) -> triple2(?X, ?Y).
		triple2(?X, ?Y) -> triple2(?Y, ?X).
		triple2(?X, ?Y), triple2(?Y, ?Z) -> triple2(?X, ?Z).
		triple(?X, ?U, ?Y) -> eqtriple(?X, ?U, ?Y).
		eqtriple(?X1, ?U, ?Y), triple2(?X1, ?X2) -> eqtriple(?X2, ?U, ?Y).
		eqtriple(?X, ?U, ?Y1), triple2(?Y1, ?Y2) -> eqtriple(?X, ?U, ?Y2).
	`
	q2, err := repro.ParseQuery(sameAsLibrary+`
		eqtriple(?Y, is_author_of, ?Z), eqtriple(?Y, name, ?X) -> query(?X).
	`, "query")
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.Validate(q2, repro.TriQLite10); err != nil {
		log.Fatal(err)
	}
	res, err = repro.Eval(ctx, g, repro.Request{Query: q2, Language: repro.TriQLite10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("authors with the sameAs library:   ", res.Rows())

	// Query (4) as an existential rule: every pair of coauthors shares some
	// publication — an anonymous resource, invented by the ∃ in the head.
	q3, err := repro.ParseQuery(`
		triple(?X, is_coauthor_of, ?Y) ->
			exists ?Z pub(?X, ?Z), pub(?Y, ?Z).
		pub(?X, ?Z), triple(?X, name, ?N) -> query(?N).
	`, "query")
	if err != nil {
		log.Fatal(err)
	}
	res, err = repro.Eval(ctx, g, repro.Request{Query: q3, Language: repro.TriQLite10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("people with some (possibly implied) publication:", res.Rows())
}
