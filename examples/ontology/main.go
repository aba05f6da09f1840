// Ontology: SPARQL under the OWL 2 QL core direct semantics entailment
// regime (Sections 5.2–5.3). The same basic graph pattern is evaluated under
// plain SPARQL, under the active-domain regime ⟦·⟧^U, and under ⟦·⟧^All —
// reproducing the dog-that-eats-something story of the paper.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/chase"
	"repro/internal/owl"
)

func main() {
	// The graph (14) of Section 5.2: dog is an animal, every animal eats
	// something — with the herbivore twist of Section 5.3: whatever is eaten
	// is plant material.
	o := owl.NewOntology().Add(
		owl.ClassAssertion(owl.Atom("animal"), "dog"),
		owl.SubClassOf(owl.Atom("animal"), owl.Some(owl.Prop("eats"))),
		owl.SubClassOf(owl.Some(owl.Inv("eats")), owl.Atom("plant_material")),
	)
	g := o.ToGraph()
	fmt.Println("ontology:")
	fmt.Println(o)

	q, err := repro.ParseSPARQL(`SELECT ?X WHERE { ?X eats _:B . _:B rdf:type plant_material }`)
	if err != nil {
		log.Fatal(err)
	}
	opts := repro.Options{Chase: chase.Options{MaxDepth: 16}}

	for _, mode := range []struct {
		name   string
		regime repro.Regime
	}{
		{"plain SPARQL            ", repro.PlainRegime},
		{"OWL 2 QL core regime (U)", repro.ActiveDomainRegime},
		{"regime without AD (All) ", repro.AllRegime},
	} {
		res, err := repro.Eval(context.Background(), g, repro.Request{SPARQL: q, Regime: mode.regime, Options: opts})
		if err != nil {
			log.Fatal(err)
		}
		if res.Inconsistent {
			fmt.Printf("%s → ⊤\n", mode.name)
			continue
		}
		fmt.Printf("%s → %d mapping(s) %s\n", mode.name, res.Mappings.Len(), res.Mappings)
	}

	// The independent DL-LiteR reasoner agrees: dog ∈ ∃eats, and the
	// anonymous meal is plant material in every model.
	r := owl.NewReasoner(o)
	fmt.Printf("\noracle: dog ∈ ∃eats = %v, ∃eats⁻ ⊑ plant_material = %v\n",
		r.Member("dog", owl.Some(owl.Prop("eats"))),
		r.SubClassOf(owl.Some(owl.Inv("eats")), owl.Atom("plant_material")))
}
