// Package flagledger is the test helper behind each binary's TestFlagLedger:
// it renders a flag set one flag per line (name, default, usage) and holds it
// to testdata/flags.golden, so a knob that appears, disappears or changes its
// default is a reviewed golden diff rather than drift — and `wc -l` of the
// goldens is the repository's count of settable values.
package flagledger

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

const golden = "testdata/flags.golden"

// Check compares fs with the golden file of the package under test, or
// rewrites the file when update is set.
func Check(t *testing.T, fs *flag.FlagSet, update bool) {
	t.Helper()
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&b, "-%s\t%q\t%s\n", f.Name, f.DefValue, f.Usage)
	})
	got := b.String()
	if update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("the flag set changed; review and rerun with -update:\n--- got\n%s--- want\n%s", got, want)
	}
}
