// Paths: the navigational baseline. SPARQL 1.1 property paths (the
// regular-expression mechanism the paper's introduction discusses) handle
// single-direction reachability fine — but the Section 2 transport query
// needs recursion in two directions at once, and this example demonstrates
// finitely that no small path expression expresses it: expressions tuned to
// one network break on a renamed copy, while the TriQ program transfers.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/sparql"
	"repro/internal/workload"
)

func main() {
	// Plain reachability IS a property path.
	g, _ := repro.ParseGraph(`
		a knows b .
		b knows c .
		c knows d .
	`)
	reach := sparql.MustParsePath("knows+")
	fmt.Println("knows+ pairs:")
	for _, p := range sparql.EvalPath(g, reach).Sorted() {
		fmt.Printf("  %s → %s\n", p[0], p[1])
	}

	// The transport query is not: enumerate every path expression up to
	// size 5 over network A's vocabulary…
	gA := workload.TransportGraph(2, 2, 3, "acme")
	gB := workload.TransportGraph(2, 2, 3, "zeta")
	wantA := transportRelation(gA)
	wantB := transportRelation(gB)
	var alphabet []string
	for _, p := range gA.Predicates() {
		alphabet = append(alphabet, p.Value)
	}
	exprs := sparql.EnumeratePaths(alphabet, 5)
	var winners []sparql.PathExpr
	for _, e := range exprs {
		if sparql.EvalPath(gA, e).Equal(wantA) {
			winners = append(winners, e)
		}
	}
	fmt.Printf("\n%d path expressions enumerated over network A's vocabulary\n", len(exprs))
	fmt.Printf("%d compute the correct transport relation on network A, e.g.:\n", len(winners))
	for i, e := range winners {
		if i >= 3 {
			break
		}
		fmt.Printf("  %s\n", e)
	}
	survived := 0
	for _, e := range winners {
		if sparql.EvalPath(gB, e).Equal(wantB) {
			survived++
		}
	}
	fmt.Printf("…but %d of them survive on network B (renamed services).\n", survived)
	fmt.Println("The TriQ-Lite program is correct on both networks unchanged.")
}

func transportRelation(g *repro.Graph) sparql.PairSet {
	res, err := repro.Eval(context.Background(), g, repro.Request{Query: workload.TransportQuery(), Language: repro.TriQLite10})
	if err != nil {
		log.Fatal(err)
	}
	out := make(sparql.PairSet)
	for _, tup := range res.Tuples {
		out[sparql.TermPair{tup[0], tup[1]}] = true
	}
	return out
}
