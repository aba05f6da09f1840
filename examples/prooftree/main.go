// Prooftree: Figure 1 of the paper — building and rendering the proof-tree
// of p(a,a) with respect to D = {s(a,a,a), t(a)} and the warded program of
// Example 6.10, using the ProofTree decision procedure of Section 6.3.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/datalog"
)

func main() {
	g, err := repro.ParseGraph(`
		a a a .
	`)
	_ = g
	if err != nil {
		log.Fatal(err)
	}
	// The prover works over arbitrary fact databases; Figure 1's database is
	// not a triple graph, so we feed it through the program facts directly
	// by using the internal entry point via the facade's graph loader on a
	// triple encoding, or simply build the instance with datalog atoms.
	prog, err := repro.ParseProgram(`
		s(?X, ?Y, ?Z) -> exists ?W s(?X, ?Z, ?W).
		s(?X, ?Y, ?Z), s(?Y, ?Z, ?W) -> q(?X, ?Y).
		t(?X) -> exists ?Z p(?X, ?Z).
		p(?X, ?Y), q(?X, ?Z) -> r(?X, ?Y, ?Z).
		r(?X, ?Y, ?Z) -> p(?X, ?Z).
	`)
	if err != nil {
		log.Fatal(err)
	}
	// Encode D = {s(a,a,a), t(a)} as triples the facade can load, then remap
	// them into the s/t predicates with two loading rules.
	data, err := repro.ParseGraph(`
		a sfact3 a .
		a tfact a .
	`)
	if err != nil {
		log.Fatal(err)
	}
	loader, err := repro.ParseProgram(`
		triple(?X, sfact3, ?Z) -> s(?X, ?X, ?Z).
		triple(?X, tfact, ?Y) -> t(?X).
	`)
	if err != nil {
		log.Fatal(err)
	}
	full := loader.Merge(prog)
	pv, err := repro.NewProver(data, full)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	goal := datalog.MustParseAtom("p(a, a)")
	node, ok, err := pv.ProveCtx(ctx, goal)
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		log.Fatalf("%v should be provable (Figure 1)", goal)
	}
	fmt.Printf("proof-tree of %v (Definition 6.11, cf. Figure 1):\n\n", goal)
	fmt.Print(node.Render())
	fmt.Printf("\n%d nodes.\n", node.Size())

	// r(a,a,a) is also derivable (p(a,a) and q(a,a) both hold)…
	also := datalog.MustParseAtom("r(a, a, a)")
	_, ok, err = pv.ProveCtx(ctx, also)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%v provable: %v\n", also, ok)
	// …while a goal that no chase derivation reaches is refuted finitely.
	bad := datalog.MustParseAtom("s(a, sfact3, a)")
	_, ok, err = pv.ProveCtx(ctx, bad)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v provable: %v\n", bad, ok)
}
