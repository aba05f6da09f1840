package repro_test

import (
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestSmokeScriptMatchesCI keeps the triqd drills runnable: scripts/smoke.sh
// parses (and scripts/size.sh, which CI runs beside it), and the smokes it lists are the seven CI is meant to run, each of
// them invoked by ci.yml (by name, or through `all`) and none besides. It
// starts no server and opens no socket.
func TestSmokeScriptMatchesCI(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not installed")
	}
	for _, script := range []string{"scripts/smoke.sh", "scripts/size.sh"} {
		if out, err := exec.Command("bash", "-n", script).CombinedOutput(); err != nil {
			t.Fatalf("bash -n %s: %v\n%s", script, err, out)
		}
	}
	out, err := exec.Command("bash", "scripts/smoke.sh", "--list").Output()
	if err != nil {
		t.Fatalf("scripts/smoke.sh --list: %v", err)
	}
	listed := strings.Fields(string(out))
	want := "triqd telemetry tracing crash-recovery failover materialization ops"
	if got := strings.Join(listed, " "); got != want {
		t.Fatalf("--list = %q, want %q", got, want)
	}

	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var invoked []string
	for _, m := range regexp.MustCompile(`(?m)^\s*(?:run: )?bash scripts/smoke\.sh (.*)$`).FindAllStringSubmatch(string(ci), -1) {
		for _, name := range strings.Fields(m[1]) {
			if name == "all" {
				invoked = append(invoked, listed...)
			} else {
				invoked = append(invoked, name)
			}
		}
	}
	slices.Sort(invoked)
	slices.Sort(listed)
	if invoked = slices.Compact(invoked); !slices.Equal(invoked, listed) {
		t.Errorf("ci.yml runs smokes %q, scripts/smoke.sh lists %q", invoked, listed)
	}
}
