// Clique: Example 4.3 of the paper — the k-clique query as a TriQ 1.0
// program, demonstrating that the language can express inherently hard
// (ExpTime) queries. The program builds a tree of n^k mappings with
// existential rules and checks it with stratified negation.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/chase"
	"repro/internal/triq"
	"repro/internal/workload"
)

func main() {
	q := workload.CliqueQuery()
	if err := triq.Validate(q, triq.TriQ10); err != nil {
		log.Fatal("clique query should be TriQ 1.0: ", err)
	}
	if err := triq.Validate(q, triq.TriQLite10); err == nil {
		log.Fatal("clique query should NOT be TriQ-Lite 1.0")
	} else {
		fmt.Println("as expected, the program is TriQ 1.0 but not TriQ-Lite 1.0:")
		fmt.Println("  ", err)
	}

	for _, cfg := range []struct {
		n, k int
		seed int64
	}{
		{6, 3, 1}, {6, 4, 2}, {8, 3, 3}, {8, 4, 4},
	} {
		nodes, edges := workload.RandomGraph(cfg.n, 0.5, cfg.seed)
		db := workload.CliqueDB(cfg.k, nodes, edges)
		start := time.Now()
		res, err := triq.EvalCtx(context.Background(), db, q, triq.TriQ10, triq.Options{
			Chase: chase.Options{MaxFacts: 10_000_000},
		})
		if err != nil {
			log.Fatal(err)
		}
		found := len(res.Answers.Tuples) > 0
		oracle := workload.HasClique(nodes, edges, cfg.k)
		fmt.Printf("n=%d k=%d: clique=%v (oracle %v), %d chase facts, %v\n",
			cfg.n, cfg.k, found, oracle, res.Stats.FactsDerived, time.Since(start).Round(time.Millisecond))
	}
}
