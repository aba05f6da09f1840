// Transport: the closing example of Section 2 — a navigation query that
// SPARQL 1.1 property paths cannot express, because it must recurse in two
// directions at once (along the partOf hierarchy to recognize transport
// services, and along the city connections of arbitrary length).
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/workload"
)

func main() {
	// The figure of Section 2: three services at different nesting depths.
	g, err := repro.ParseGraph(`
		TheAirline partOf transportService .
		BritishAirways partOf transportService .
		Renfe partOf transportService .
		A311 partOf TheAirline .
		BA201 partOf BritishAirways .
		R502 partOf Renfe .
		Oxford A311 London .
		London BA201 Madrid .
		Madrid R502 Valladolid .
	`)
	if err != nil {
		log.Fatal(err)
	}

	q, err := repro.ParseQuery(`
		% collect all transport services (recursion over partOf)
		triple(?X, partOf, transportService) -> ts(?X).
		triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
		% collect all connected city pairs (recursion over connections)
		ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).
		ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).
		conn(?X, ?Y) -> query(?X, ?Y).
	`, "query")
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.Validate(q, repro.TriQLite10); err != nil {
		log.Fatal("the transport query should be TriQ-Lite 1.0: ", err)
	}
	res, err := repro.Eval(context.Background(), g, repro.Request{Query: q, Language: repro.TriQLite10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reachable city pairs:")
	for _, row := range res.Rows() {
		fmt.Println(" ", row)
	}

	// The same query over a synthetic network generated by the workload
	// package (used in experiment E2).
	big := workload.Transport(8, 3, 6)
	fmt.Printf("\nsynthetic network: %d facts, %d cities\n",
		big.Len(), workload.TransportCityCount(8, 6))
}
