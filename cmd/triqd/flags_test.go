package main

import (
	"flag"
	"testing"

	"repro/internal/flagledger"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/flags.golden")

// TestFlagLedger pins triqd's flags — name, default, usage — against
// testdata/flags.golden. Regenerate with: go test -run TestFlagLedger ./cmd/triqd -update
func TestFlagLedger(t *testing.T) {
	fs := flag.NewFlagSet("triqd", flag.ContinueOnError)
	defineFlags(fs)
	flagledger.Check(t, fs, *updateLedger)
}
