package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// The mutation endpoint contract: atomic N-Triples batches through the
// epoch store, 501 without a store, 503 while recovering or draining,
// 413 over the body cap, and query visibility of committed epochs.

func newStoreServer(t *testing.T, cfg Config, scfg store.Config) (*Server, *store.Store, *httptest.Server) {
	t.Helper()
	cfg.Obs = obs.New()
	if cfg.Breaker.Window == 0 {
		cfg.Breaker.Disabled = true
	}
	s := New(cfg)
	st, _, err := store.Open(scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	g, err := repro.ParseGraph(testData)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	s.SetStore(st)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, st, ts
}

func postMutation(t *testing.T, url string, req MutationRequest) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func TestServeInsertDeleteRoundTrip(t *testing.T) {
	_, st, ts := newStoreServer(t, Config{}, store.Config{Dir: t.TempDir(), CheckpointEvery: -1})
	base := st.Current().Seq

	status, body := postMutation(t, ts.URL+"/insert", MutationRequest{
		Triples: "Shuttle partOf TheAirline .\nShuttle partOf TheAirline .\n",
	})
	if status != http.StatusOK {
		t.Fatalf("insert = %d, body %s", status, body)
	}
	var mr MutationResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != base+1 || mr.Applied != 1 || mr.Batch != 1 || !mr.Durable {
		t.Fatalf("insert response = %+v, want epoch %d / 1 applied / durable", mr, base+1)
	}

	// The committed epoch is immediately visible to queries.
	status, qbody := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	if status != http.StatusOK {
		t.Fatalf("query = %d", status)
	}
	if qr := decodeResponse(t, qbody); len(qr.Rows) != 3 {
		t.Fatalf("rows after insert = %v, want 3 (Shuttle now in the closure)", qr.Rows)
	}

	status, body = postMutation(t, ts.URL+"/delete", MutationRequest{
		Triples: "Shuttle partOf TheAirline .\nNoSuch partOf Nothing .\n",
	})
	if status != http.StatusOK {
		t.Fatalf("delete = %d, body %s", status, body)
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != base+2 || mr.Applied != 1 || mr.Batch != 2 {
		t.Fatalf("delete response = %+v, want epoch %d / 1 of 2 applied", mr, base+2)
	}
	status, qbody = postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram})
	if status != http.StatusOK {
		t.Fatalf("query = %d", status)
	}
	if qr := decodeResponse(t, qbody); len(qr.Rows) != 2 {
		t.Fatalf("rows after delete = %v, want the original 2", qr.Rows)
	}
}

// TestServeConcurrentReadWriteMix soaks a durable, checkpointing store with
// six clients mixing reads and writes: nothing is shed or refused, every
// acknowledged epoch is its own, a writer sees its epochs increase, and the
// last one acknowledged is the epoch the store serves.
func TestServeConcurrentReadWriteMix(t *testing.T) {
	_, st, ts := newStoreServer(t, Config{}, store.Config{Dir: t.TempDir(), CheckpointEvery: 8})
	const clients, perClient = 6, 10 // 60 requests, 4 of every 10 a write
	acked := make([][]uint64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if i%5 >= 2 {
					if status, body := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusOK {
						t.Errorf("client %d read %d = %d: %s", c, i, status, body)
					}
					continue
				}
				status, body := postMutation(t, ts.URL+"/insert", MutationRequest{
					Triples: fmt.Sprintf("mix-c%d-i%d partOf TheAirline .\n", c, i),
				})
				var mr MutationResponse
				if status != http.StatusOK || json.Unmarshal(body, &mr) != nil {
					t.Errorf("client %d write %d = %d: %s", c, i, status, body)
					continue
				}
				acked[c] = append(acked[c], mr.Epoch)
			}
		}(c)
	}
	wg.Wait()

	seen := map[uint64]bool{}
	var last uint64
	for c, epochs := range acked {
		if len(epochs) != perClient*2/5 {
			t.Errorf("client %d: %d writes acknowledged, want %d", c, len(epochs), perClient*2/5)
		}
		for i, e := range epochs {
			if seen[e] {
				t.Errorf("epoch %d acknowledged twice", e)
			}
			seen[e] = true
			if i > 0 && e <= epochs[i-1] {
				t.Errorf("client %d: epochs %v do not increase", c, epochs)
			}
			if e > last {
				last = e
			}
		}
	}
	if cur := st.Current().Seq; last != cur {
		t.Errorf("highest acknowledged epoch %d != store epoch %d", last, cur)
	}
}

func TestServeMutationWithoutStoreIs501(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	status, body := postMutation(t, ts.URL+"/insert", MutationRequest{Triples: "a p b .\n"})
	if status != http.StatusNotImplemented {
		t.Fatalf("insert without store = %d, body %s", status, body)
	}
}

func TestServeMutationBadRequests(t *testing.T) {
	_, _, ts := newStoreServer(t, Config{}, store.Config{})
	for name, req := range map[string]MutationRequest{
		"unparseable": {Triples: "not an n-triple"},
		"empty":       {Triples: ""},
	} {
		if status, body := postMutation(t, ts.URL+"/insert", req); status != http.StatusBadRequest {
			t.Errorf("%s = %d, body %s, want 400", name, status, body)
		}
	}
	resp, err := http.Post(ts.URL+"/delete", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken JSON = %d, want 400", resp.StatusCode)
	}
}

func TestServeBodyCap413(t *testing.T) {
	_, _, ts := newStoreServer(t, Config{MaxBodyBytes: 64}, store.Config{})
	big := MutationRequest{Triples: strings.Repeat("subj pred obj .\n", 64)}
	if status, body := postMutation(t, ts.URL+"/insert", big); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized insert = %d, body %s, want 413", status, body)
	}
	// Queries share the cap.
	status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: strings.Repeat(testProgram, 10)})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized query = %d, want 413", status)
	}
	// An in-budget request still works.
	if status, body := postMutation(t, ts.URL+"/insert", MutationRequest{Triples: "a partOf b .\n"}); status != http.StatusOK {
		t.Fatalf("small insert = %d, body %s", status, body)
	}
}

func TestServeReadyzStatesJSON(t *testing.T) {
	s := New(Config{Breaker: BreakerConfig{Disabled: true}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	readyz := func() (int, map[string]any) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("readyz body not JSON: %v", err)
		}
		return resp.StatusCode, m
	}

	if status, m := readyz(); status != http.StatusServiceUnavailable || m["state"] != "empty" {
		t.Fatalf("empty server readyz = %d %v", status, m)
	}
	s.SetRecovering(true)
	if status, m := readyz(); status != http.StatusServiceUnavailable || m["state"] != "recovering" {
		t.Fatalf("recovering readyz = %d %v, want 503 {\"state\":\"recovering\"}", status, m)
	}
	// Mutations shed while recovering.
	st, _, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s.SetStore(st)
	if status, body := postMutation(t, ts.URL+"/insert", MutationRequest{Triples: "a p b .\n"}); status != http.StatusServiceUnavailable {
		t.Fatalf("insert while recovering = %d, body %s, want 503", status, body)
	}
	s.SetRecovering(false)
	if status, m := readyz(); status != http.StatusOK || m["state"] != "ready" {
		t.Fatalf("ready readyz = %d %v", status, m)
	}
	if status, body := postMutation(t, ts.URL+"/insert", MutationRequest{Triples: "a p b .\n"}); status != http.StatusOK {
		t.Fatalf("insert after recovery = %d, body %s", status, body)
	}
	if status, m := readyz(); status != http.StatusOK || m["epoch"] != float64(st.Current().Seq) {
		t.Fatalf("ready readyz epoch = %d %v, want %d", status, m, st.Current().Seq)
	}
}

func TestServeMutationStoreErrorIs500(t *testing.T) {
	// A dead store turns mutations into 500s, not panics.
	_, st, ts := newStoreServer(t, Config{}, store.Config{})
	st.Close()
	if status, body := postMutation(t, ts.URL+"/insert", MutationRequest{Triples: "x p y .\n"}); status != http.StatusInternalServerError {
		t.Fatalf("insert on closed store = %d, body %s, want 500", status, body)
	}
}
