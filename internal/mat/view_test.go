package mat

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/triq"
)

// TestMatViewLifetime follows one program's answer view through its epochs:
// the cold build installs the answer it served as the view, so the next read
// builds none; a commit drops the view, a Serve still pinned to the old epoch
// misses, and the first read of the new epoch builds the view that every
// later read of that epoch shares.
func TestMatViewLifetime(t *testing.T) {
	if matFaultsArmed() {
		t.Skip("a fault-cut build or pass drops the entry, and the view with it")
	}
	ctx := context.Background()
	h := newMatHarness(t)
	prog := datalog.MustParse(strings.Join(matTemplates, "\n"))
	rng := rand.New(rand.NewSource(3))
	base := make([]rdf.Triple, 15)
	for i := range base {
		base[i] = randTriple(rng)
	}
	if _, _, err := h.st.Insert(base); err != nil {
		t.Fatal(err)
	}
	viewBuilds := func() int64 { return h.obs.Registry().Counter("mat.view_builds") }
	serve := func(epoch uint64) *triq.MatServed {
		return h.m.Serve(prog, epoch, matOutput, chase.Options{})
	}
	view := func() *triq.MatServed {
		h.m.mu.Lock()
		defer h.m.mu.Unlock()
		e := h.m.entries[prog.String()]
		if e == nil {
			t.Fatal("the program has no entry")
		}
		return e.views[matOutput]
	}

	e0 := h.st.Current().Seq
	if path := h.query(t, ctx, prog, "cold build").Explain.Path; path != triq.PathMaterializedBuild {
		t.Fatalf("first read took path %s, want %s", path, triq.PathMaterializedBuild)
	}
	seeded := view()
	if seeded == nil || viewBuilds() != 0 {
		t.Fatalf("after the build: view %v, %d view builds; want the built answer and none", seeded, viewBuilds())
	}
	if got := serve(e0); got != seeded {
		t.Fatalf("a read after the build did not share the view it installed")
	}

	fresh := []rdf.Triple{rdf.T("n1", "link", "n8"), rdf.T("n8", "link", "n2"), rdf.T("n8", "type", "hub")}
	for i, edit := range []func([]rdf.Triple) (store.Epoch, int, error){h.st.Insert, h.st.Delete} {
		if _, _, err := edit(fresh); err != nil {
			t.Fatal(err)
		}
		e1 := h.st.Current().Seq
		if view() != nil {
			t.Fatalf("commit %d to epoch %d kept the view of epoch %d", i, e1, e0)
		}
		if got := serve(e0); got != nil {
			t.Fatalf("a read pinned to the old epoch %d was served at epoch %d", e0, e1)
		}
		before := viewBuilds()
		h.query(t, ctx, prog, fmt.Sprintf("commit %d", i)) // equals the chase; its second read shares the view
		built := view()
		if built == nil || viewBuilds() != before+1 {
			t.Fatalf("epoch %d: view %v after %d view builds; want one built", e1, built, viewBuilds()-before)
		}
		if got := serve(e1); got != built || viewBuilds() != before+1 {
			t.Fatalf("epoch %d: a later read built another view", e1)
		}
		e0 = e1
	}
}

// TestWarmReadsRaceCommits: 32 readers read warm while a writer commits
// inserts and deletes. Every read pins an epoch and must equal the
// from-scratch chase of that epoch's graph, rows and order, whether it built
// the epoch's view, shared it, or missed it and chased.
func TestWarmReadsRaceCommits(t *testing.T) {
	ctx := context.Background()
	h := newMatHarness(t)
	prog := datalog.MustParse(strings.Join(matTemplates, "\n"))
	q := datalog.NewQuery(prog, matOutput)
	rng := rand.New(rand.NewSource(9))
	pool := make([]rdf.Triple, 40)
	for i := range pool {
		pool[i] = randTriple(rng)
	}
	if _, _, err := h.st.Insert(pool[:20]); err != nil {
		matSkipInjected(t, err)
		t.Fatal(err)
	}

	// scratch memoises the chase's answer per epoch; readers of one epoch
	// compute it once.
	var mu sync.Mutex
	scratch := map[uint64]func() (string, error){}
	want := func(ep store.Epoch) (string, error) {
		mu.Lock()
		f := scratch[ep.Seq]
		if f == nil {
			f = sync.OnceValues(func() (string, error) {
				resp, err := ask(ctx, ep.Graph, q, triq.Options{})
				if err != nil {
					return "", err
				}
				return fmt.Sprint(resp.Inconsistent, resp.Rows()), nil
			})
			scratch[ep.Seq] = f
		}
		mu.Unlock()
		return f()
	}

	var reads, warm atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 32; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					if n > 0 {
						return
					}
				default:
				}
				ep := h.st.Current()
				got, err := ask(ctx, ep.Graph, q, triq.Options{Mat: h.m, MatEpoch: ep.Seq})
				reads.Add(1)
				if err == nil && got.Explain.Path == triq.PathMaterialized {
					warm.Add(1)
				}
				exp, werr := want(ep)
				if err != nil || werr != nil {
					if !matFaultsArmed() {
						t.Errorf("epoch %d: read %v, chase %v", ep.Seq, err, werr)
					}
					continue
				}
				if s := fmt.Sprint(got.Inconsistent, got.Rows()); s != exp {
					t.Errorf("epoch %d, path %s: read\n%s\nchase\n%s", ep.Seq, got.Explain.Path, s, exp)
				}
			}
		}()
	}
	// Before each commit the writer waits for as many reads as there are
	// readers, so that every epoch is read while the next commit drops its
	// view.
	for i := 0; i < 30; i++ {
		for next := reads.Load() + 32; reads.Load() < next; {
			runtime.Gosched()
		}
		batch := []rdf.Triple{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
		edit := h.st.Insert
		if i%2 == 1 {
			edit = h.st.Delete
		}
		if _, _, err := edit(batch); err != nil && !matFaultsArmed() {
			t.Errorf("commit %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
	t.Logf("%d reads, %d warm", reads.Load(), warm.Load())
	if warm.Load() == 0 && !matFaultsArmed() {
		t.Fatal("no read was served from the warm materialization")
	}
}
