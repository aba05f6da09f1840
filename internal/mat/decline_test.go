package mat

import (
	"context"
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/owl"
	"repro/internal/rdf"
)

// TestMatDeclineRemembered: a program whose chase invents nulls without end
// trips the depth bound on every build. Two reads at one epoch build once and
// decline twice; a commit allows one new attempt; a build the request's
// context canceled is not remembered, so the next read builds again.
func TestMatDeclineRemembered(t *testing.T) {
	if matFaultsArmed() {
		t.Skip("a fault-cut build is not a decline of the data")
	}
	h := newMatHarness(t)
	prog := datalog.MustParse(`
		triple(?X, link, ?Y) -> exists ?Z next(?Y, ?Z).
		next(?X, ?Y) -> exists ?Z next(?Y, ?Z).
		triple(?X, link, ?Y) -> out(?X).
	`)
	attempts := func() int64 { return h.obs.Registry().Counter("mat.build_declined") }
	commit := func(s, o string) {
		t.Helper()
		if _, _, err := h.st.Insert([]rdf.Triple{rdf.T(s, "link", o)}); err != nil {
			t.Fatal(err)
		}
	}
	read := func(ctx context.Context) {
		t.Helper()
		ep := h.st.Current()
		if served, err := h.m.BuildServeKey(ctx, owl.DB(ep.Graph), prog, prog.String(), ep.Seq, "out", chase.Options{}); served != nil || err != nil {
			t.Fatalf("a build that trips the depth bound served %v, %v", served, err)
		}
	}

	commit("a", "b")
	read(t.Context())
	read(t.Context())
	if n := attempts(); n != 1 {
		t.Fatalf("two reads at one epoch: %d builds declined, want 1", n)
	}
	commit("b", "c")
	read(t.Context())
	read(t.Context())
	if n := attempts(); n != 2 {
		t.Fatalf("after a commit: %d builds declined, want 2", n)
	}
	commit("c", "d")
	canceled, cancel := context.WithCancel(t.Context())
	cancel()
	read(canceled)
	read(t.Context())
	read(t.Context())
	if n := attempts(); n != 4 {
		t.Fatalf("a canceled build and two reads: %d builds declined, want 4", n)
	}

	// Readers race commits: the memo is written by builds and cleared by
	// commits under the one lock, and no read is ever served.
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 8 {
				ep := h.st.Current()
				if served, err := h.m.BuildServeKey(t.Context(), owl.DB(ep.Graph), prog, prog.String(), ep.Seq, "out", chase.Options{}); served != nil || err != nil {
					t.Errorf("a build that trips the depth bound served %v, %v", served, err)
				}
			}
		}()
	}
	for _, o := range []string{"e", "f", "g"} {
		commit("d", o)
	}
	wg.Wait()
}
