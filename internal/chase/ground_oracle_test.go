package chase

import (
	"context"

	"repro/internal/datalog"
)

// restartStableGround is the differential oracle for StableGround: the
// deepening loop as it was before steps shared an engine. Every depth step
// chases τ_db(G) from scratch and the ground parts of consecutive steps are
// compared atom by atom. It follows the same depth schedule (2, 4, …, then
// the ceiling itself) and the same stopping rule.
func restartStableGround(db *Instance, prog *datalog.Program, opts Options, window int) (*GroundResult, error) {
	opts = opts.withDefaults()
	if window <= 0 {
		window = 2
	}
	ceiling := opts.MaxDepth
	var prev *Instance
	stable := 0
	for depth := min(2, ceiling); ; depth = min(depth+2, ceiling) {
		opts.MaxDepth = depth
		res, err := GroundSemanticsCtx(context.Background(), db, prog, opts)
		if err != nil {
			return res, err
		}
		if prev != nil && res.Ground().Equal(prev) {
			stable++
		} else {
			stable = 0
		}
		if res.Inconsistent || res.Exact || stable >= window || depth == ceiling {
			return res, nil
		}
		prev = res.Ground()
	}
}
