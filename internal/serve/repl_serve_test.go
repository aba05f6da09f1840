package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/repl"
	"repro/internal/store"
)

var errFakeDisk = errors.New("fake disk failure")

// The serve-layer replication contract: epoch tokens and bounded-staleness
// reads, replica write refusal (and proxying) with the primary's address,
// promotion over the API, replica readiness states, and the read-only
// degrade of a primary whose WAL failed. The repl package's own tests cover
// the stream/apply mechanics; these tests cover the HTTP surface.

// newPair boots a primary server and a replica server wired together over
// real HTTP and waits until the replica is streaming. rcfg carries the
// replica's promotion policy; its primary, store and obs are filled in here.
func newPair(t *testing.T, primaryCfg, replicaCfg Config, rcfg repl.Config) (pri, rep *httptest.Server, replica *repl.Replica, priStore, repStore *store.Store) {
	t.Helper()
	var priSrv *Server
	priSrv, priStore, pri = newStoreServer(t, primaryCfg, store.Config{})
	_ = priSrv

	replicaCfg.Obs = obs.New()
	repSrv := New(replicaCfg)
	var err error
	repStore, _, err = store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repStore.Close() })
	repSrv.SetStore(repStore)

	rcfg.Primary, rcfg.Store, rcfg.Obs, rcfg.Backoff = pri.URL, repStore, replicaCfg.Obs, 5*time.Millisecond
	replica = repl.New(rcfg)
	repSrv.SetReplica(replica)
	rep = httptest.NewServer(repSrv.Handler())
	t.Cleanup(rep.Close)
	replica.Start(context.Background())
	t.Cleanup(replica.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := repStore.WaitEpoch(ctx, priStore.Current().Seq); err != nil {
		t.Fatalf("replica never caught up: %v", err)
	}
	return pri, rep, replica, priStore, repStore
}

func getReadyz(t *testing.T, base string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, m
}

func TestServeEpochTokens(t *testing.T) {
	_, st, ts := newStoreServer(t, Config{}, store.Config{})
	base := st.Current().Seq

	// Every query against a store answers with the pinned epoch, in the
	// header and the body.
	resp, err := http.Post(ts.URL+"/query", "application/json",
		bytes.NewReader(mustJSON(t, QueryRequest{Program: testProgram})))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Triq-Epoch"); got != itoa(base) {
		t.Fatalf("X-Triq-Epoch = %q, want %d", got, base)
	}
	if qr := decodeResponse(t, body); qr.Epoch != base {
		t.Fatalf("response epoch = %d, want %d", qr.Epoch, base)
	}

	// A satisfied min-epoch is a plain 200.
	status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram, MinEpoch: base})
	if status != http.StatusOK {
		t.Fatalf("satisfied min_epoch = %d", status)
	}

	// A min-epoch the store cannot reach within the staleness window sheds
	// 503 with a retry hint.
	_, st2, ts2 := newStoreServer(t, Config{StalenessWait: 30 * time.Millisecond}, store.Config{})
	resp2, err := http.Post(ts2.URL+"/query", "application/json",
		bytes.NewReader(mustJSON(t, QueryRequest{Program: testProgram, MinEpoch: st2.Current().Seq + 5})))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") == "" {
		t.Fatalf("stale read = %d, Retry-After %q, want 503 with hint",
			resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}

	// The header spelling works too, and a write that lands during the wait
	// unblocks the read.
	go func() {
		time.Sleep(20 * time.Millisecond)
		st.Insert([]rdf.Triple{rdf.T("Shuttle", "partOf", "TheAirline")})
	}()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query",
		bytes.NewReader(mustJSON(t, QueryRequest{Program: testProgram})))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Triq-Min-Epoch", itoa(base+1))
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("min-epoch wait = %d, body %s", resp3.StatusCode, body3)
	}
	if qr := decodeResponse(t, body3); qr.Epoch != base+1 || len(qr.Rows) != 3 {
		t.Fatalf("waited read epoch %d rows %v, want epoch %d with Shuttle visible",
			qr.Epoch, qr.Rows, base+1)
	}

	// A header that is not an epoch is a malformed request, not an absent
	// token: answering it would hand a read-your-writes client a stale 200.
	for _, garbled := range []string{"12x", "-1", "1e3"} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query",
			bytes.NewReader(mustJSON(t, QueryRequest{Program: testProgram})))
		req.Header.Set("X-Triq-Min-Epoch", garbled)
		resp4, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body4, _ := io.ReadAll(resp4.Body)
		resp4.Body.Close()
		if f := decodeFailure(t, body4); resp4.StatusCode != http.StatusBadRequest || !strings.Contains(f.Error, "X-Triq-Min-Epoch") {
			t.Fatalf("X-Triq-Min-Epoch %q = %d, body %s, want 400 naming the header", garbled, resp4.StatusCode, body4)
		}
	}
}

func TestServeReplicaRefusesWritesAndPromotes(t *testing.T) {
	pri, rep, _, priStore, repStore := newPair(t, Config{}, Config{}, repl.Config{})

	// Readiness reports a live replica with the primary's address.
	status, m := getReadyz(t, rep.URL)
	if status != http.StatusOK || m["state"] != "replica" || m["primary"] != pri.URL {
		t.Fatalf("replica readyz = %d %v", status, m)
	}

	// Writes to the replica are refused toward the primary.
	status, body := postMutation(t, rep.URL+"/insert", MutationRequest{Triples: "x partOf y .\n"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("replica insert = %d, body %s, want 503", status, body)
	}
	var f Failure
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatal(err)
	}
	if f.Primary != pri.URL || f.RetryAfterMS <= 0 {
		t.Fatalf("failure = %+v, want primary %q and a retry hint", f, pri.URL)
	}

	// Reads are served, with the replica's epoch token.
	if status, _ := postJSON(t, rep.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusOK {
		t.Fatalf("replica query = %d", status)
	}

	// Promotion over the API opens the write path at the primary's epoch +1.
	resp, err := http.Post(rep.URL+"/repl/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st repl.State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.State != repl.StatePromoted {
		t.Fatalf("promote = %d %+v", resp.StatusCode, st)
	}
	status, body = postMutation(t, rep.URL+"/insert", MutationRequest{Triples: "x partOf y .\n"})
	if status != http.StatusOK {
		t.Fatalf("post-promote insert = %d, body %s", status, body)
	}
	var mr MutationResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if want := priStore.Current().Seq + 1; mr.Epoch != want {
		t.Fatalf("promoted epoch = %d, want %d", mr.Epoch, want)
	}
	if repStore.Current().Seq != mr.Epoch {
		t.Fatalf("promoted store at %d, ack said %d", repStore.Current().Seq, mr.Epoch)
	}
	// And readiness flips to plain ready.
	if status, m := getReadyz(t, rep.URL); status != http.StatusOK || m["state"] != "ready" {
		t.Fatalf("post-promote readyz = %d %v", status, m)
	}
}

// TestServePromoteOnLossOpensWrites is the failover composition: the primary
// dies, the replica promotes itself once the grace runs out, and its mutation
// handler goes from 503 to applying the batch at the next epoch.
func TestServePromoteOnLossOpensWrites(t *testing.T) {
	pri, rep, _, priStore, repStore := newPair(t, Config{}, Config{},
		repl.Config{PromoteOnLoss: true, PromoteGrace: 50 * time.Millisecond})
	write := MutationRequest{Triples: "x partOf y .\n"}
	if status, body := postMutation(t, rep.URL+"/insert", write); status != http.StatusServiceUnavailable {
		t.Fatalf("replica insert before the loss = %d, body %s, want 503", status, body)
	}
	base := priStore.Current().Seq
	pri.CloseClientConnections()
	pri.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		status, body := postMutation(t, rep.URL+"/insert", write)
		if status == http.StatusOK {
			var mr MutationResponse
			if err := json.Unmarshal(body, &mr); err != nil {
				t.Fatal(err)
			}
			if mr.Epoch != base+1 || !repStore.Current().Graph.Has(rdf.T("x", "partOf", "y")) {
				t.Fatalf("promoted write acked at epoch %d (primary died at %d), store at %d", mr.Epoch, base, repStore.Current().Seq)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no 200 after the primary died (last status %d, body %s)", status, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServePromoteWithoutReplicaIs409(t *testing.T) {
	_, _, ts := newStoreServer(t, Config{}, store.Config{})
	resp, err := http.Post(ts.URL+"/repl/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote on primary = %d, want 409", resp.StatusCode)
	}
}

func TestServeReplStreamWithoutStoreIs501(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/repl/stream")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("stream without store = %d, want 501", resp.StatusCode)
	}
}

func TestServeProxyWrites(t *testing.T) {
	pri, rep, _, priStore, repStore := newPair(t, Config{}, Config{ProxyWrites: true}, repl.Config{})

	status, body := postMutation(t, rep.URL+"/insert", MutationRequest{Triples: "Shuttle partOf TheAirline .\n"})
	if status != http.StatusOK {
		t.Fatalf("proxied insert = %d, body %s", status, body)
	}
	var mr MutationResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != priStore.Current().Seq || mr.Applied != 1 {
		t.Fatalf("proxied ack = %+v, primary at %d", mr, priStore.Current().Seq)
	}

	// Read-your-writes through the replica: the ack's epoch is the
	// min-epoch token for the follow-up read.
	req, _ := http.NewRequest(http.MethodPost, rep.URL+"/query",
		bytes.NewReader(mustJSON(t, QueryRequest{Program: testProgram, MinEpoch: mr.Epoch})))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read-your-writes = %d, body %s", resp.StatusCode, rbody)
	}
	if qr := decodeResponse(t, rbody); len(qr.Rows) != 3 {
		t.Fatalf("rows = %v, want the proxied write visible", qr.Rows)
	}
	if repStore.Current().Seq < mr.Epoch {
		t.Fatalf("replica at %d after min-epoch read for %d", repStore.Current().Seq, mr.Epoch)
	}
	// And the proxy header marks where the write landed.
	hreq, _ := http.NewRequest(http.MethodPost, rep.URL+"/insert",
		bytes.NewReader(mustJSON2(t, MutationRequest{Triples: "another partOf TheAirline .\n"})))
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if got := hresp.Header.Get("X-Triq-Primary"); got != pri.URL {
		t.Fatalf("X-Triq-Primary = %q, want %q", got, pri.URL)
	}
}

func TestServeReadOnlyDegrade503(t *testing.T) {
	// A real WAL write failure latches the store read-only: writes shed 503
	// (not 500), reads stay up, and the gauge flips.
	plan := limits.NewPlan(limits.Fault{Point: "wal.append", After: 1, Err: errFakeDisk})
	srv, _, ts := newStoreServer(t, Config{}, store.Config{Dir: t.TempDir(), Faults: plan})

	if status, body := postMutation(t, ts.URL+"/insert", MutationRequest{Triples: "ok partOf TheAirline .\n"}); status != http.StatusOK {
		t.Fatalf("first insert = %d, body %s", status, body)
	}
	status, body := postMutation(t, ts.URL+"/insert", MutationRequest{Triples: "boom partOf TheAirline .\n"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("insert over dead WAL = %d, body %s, want 503", status, body)
	}
	var f Failure
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatal(err)
	}
	if f.RetryAfterMS <= 0 {
		t.Fatalf("read-only 503 without retry hint: %+v", f)
	}
	// Still read-only for subsequent writes; reads fine.
	if status, _ := postMutation(t, ts.URL+"/insert", MutationRequest{Triples: "again partOf x .\n"}); status != http.StatusServiceUnavailable {
		t.Fatalf("second write on read-only store = %d, want 503", status)
	}
	if status, _ := postJSON(t, ts.URL+"/query", QueryRequest{Program: testProgram}); status != http.StatusOK {
		t.Fatalf("read on read-only store = %d", status)
	}
	if g := srv.metricsRegistry().Snapshot().Gauges["store.readonly"]; g != 1 {
		t.Fatalf("store.readonly gauge = %v, want 1", g)
	}
}

// Small helpers local to these tests.

func mustJSON(t *testing.T, v QueryRequest) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustJSON2(t *testing.T, v MutationRequest) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }
