package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const testData = `
TheAirline partOf transportService .
A311 partOf TheAirline .
Oxford A311 London .
`

const testProgram = `
	triple(?X, partOf, transportService) -> ts(?X).
	triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
	ts(?X) -> query(?X).
`

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// startTriqd runs the server loop on a loopback listener and returns its
// base URL, the fake signal channel, and the run error channel.
func startTriqd(t *testing.T, cfg config) (string, chan os.Signal, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(context.Background(), cfg, ln, stop) }()
	return "http://" + ln.Addr().String(), stop, done
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTriqdServeQueryDrain is the full lifecycle smoke test: start, wait
// ready, query, signal, assert a clean drain.
func TestTriqdServeQueryDrain(t *testing.T) {
	cfg := config{
		data:           writeFile(t, "g.nt", testData),
		concurrency:    2,
		queue:          4,
		queueTimeout:   time.Second,
		defaultTimeout: 5 * time.Second,
		maxTimeout:     10 * time.Second,
		drainTimeout:   5 * time.Second,
	}
	base, stop, done := startTriqd(t, cfg)
	waitReady(t, base)

	body, _ := json.Marshal(map[string]string{"program": testProgram})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body %s", resp.StatusCode, raw)
	}
	var qr struct {
		Rows []string `json:"rows"`
	}
	if err := json.Unmarshal(raw, &qr); err != nil || len(qr.Rows) != 2 {
		t.Fatalf("rows = %v (err %v), want 2", qr.Rows, err)
	}

	// SPARQL endpoint over the same graph.
	body, _ = json.Marshal(map[string]string{"query": "SELECT ?x WHERE { ?x partOf TheAirline }"})
	resp, err = http.Post(base+"/sparql", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sparql status = %d", resp.StatusCode)
	}

	// Graceful drain on signal: run returns nil within the drain budget.
	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want clean exit", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete in time")
	}
	// The listener is really closed.
	if resp, err := http.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("server still answering after drain")
	}
}

func TestTriqdRequiresData(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), config{}, ln, make(chan os.Signal)); err == nil {
		t.Fatal("want an error without -data")
	}
	badPath := config{data: filepath.Join(t.TempDir(), "missing.nt")}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), badPath, ln2, make(chan os.Signal)); err == nil {
		t.Fatal("want an error for a missing data file")
	}
}

// TestTriqdContextStop checks the ctx-driven shutdown path used when triqd
// is embedded (and by this test harness).
func TestTriqdContextStop(t *testing.T) {
	cfg := config{
		data:         writeFile(t, "g.nt", testData),
		drainTimeout: 2 * time.Second,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, ln, make(chan os.Signal)) }()
	waitReady(t, "http://"+ln.Addr().String())
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ctx cancel did not stop the server")
	}
}

// TestTriqdOntologyFlag boots with an ontology merged into the data.
func TestTriqdOntologyFlag(t *testing.T) {
	cfg := config{
		data:         writeFile(t, "g.nt", "rex rdf:type dog .\n"),
		ontology:     writeFile(t, "o.owl", "SubClassOf(dog, animal)\n"),
		drainTimeout: 2 * time.Second,
	}
	base, stop, done := startTriqd(t, cfg)
	waitReady(t, base)
	body, _ := json.Marshal(map[string]string{
		"query":  "SELECT ?x WHERE { ?x rdf:type animal }",
		"regime": "active-domain",
	})
	resp, err := http.Post(base+"/sparql", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var qr struct {
		Rows []string `json:"rows"`
	}
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 {
		t.Fatalf("rows = %v, want rex entailed as an animal", qr.Rows)
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestTriqdDurableWritePath is the persistence lifecycle: boot seeds the
// store from -data, a mutation commits, a clean restart against the same
// -wal-dir recovers the mutated state (and ignores -data), and the answers
// include the inserted triple.
func TestTriqdDurableWritePath(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "store")
	cfg := config{
		data:         writeFile(t, "g.nt", testData),
		walDir:       walDir,
		drainTimeout: 5 * time.Second,
	}

	base, stop, done := startTriqd(t, cfg)
	waitReady(t, base)
	body, _ := json.Marshal(map[string]string{"triples": "Shuttle partOf TheAirline .\n"})
	resp, err := http.Post(base+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert = %d, body %s", resp.StatusCode, raw)
	}
	var mr struct {
		Epoch   uint64 `json:"epoch"`
		Durable bool   `json:"durable"`
	}
	if err := json.Unmarshal(raw, &mr); err != nil || !mr.Durable || mr.Epoch == 0 {
		t.Fatalf("insert response %s (err %v), want durable with an epoch", raw, err)
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Second boot: same wal-dir, a decoy -data that must be ignored.
	cfg.data = writeFile(t, "decoy.nt", "only decoy data .\n")
	base, stop, done = startTriqd(t, cfg)
	waitReady(t, base)
	body, _ = json.Marshal(map[string]string{"program": testProgram})
	resp, err = http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var qr struct {
		Rows []string `json:"rows"`
	}
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 3 {
		t.Fatalf("rows after restart = %v, want 3 (Shuttle persisted)", qr.Rows)
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestTriqdInMemoryWrites checks mutations work without -wal-dir (volatile
// store, durable=false acknowledgements).
func TestTriqdInMemoryWrites(t *testing.T) {
	cfg := config{
		data:         writeFile(t, "g.nt", testData),
		drainTimeout: 2 * time.Second,
	}
	base, stop, done := startTriqd(t, cfg)
	waitReady(t, base)
	body, _ := json.Marshal(map[string]string{"triples": "x partOf transportService .\n"})
	resp, err := http.Post(base+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert = %d, body %s", resp.StatusCode, raw)
	}
	var mr struct {
		Durable bool `json:"durable"`
	}
	if err := json.Unmarshal(raw, &mr); err != nil || mr.Durable {
		t.Fatalf("insert response %s (err %v), want durable=false without a WAL", raw, err)
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// waitReplica polls /readyz until the process reports a live replica state.
func waitReplica(t *testing.T, base string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			var m map[string]any
			dec := json.NewDecoder(resp.Body)
			derr := dec.Decode(&m)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && m["state"] == "replica" {
				return m
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never reached the streaming state")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTriqdReplicationLifecycle boots a primary/replica pair in-process:
// the replica streams the primary's state, serves min-epoch reads with
// read-your-writes semantics, refuses local writes toward the primary, and
// promotes over the API into a writable primary.
func TestTriqdReplicationLifecycle(t *testing.T) {
	pcfg := config{
		data:          writeFile(t, "g.nt", testData),
		walDir:        filepath.Join(t.TempDir(), "primary"),
		drainTimeout:  5 * time.Second,
		stalenessWait: 2 * time.Second,
	}
	pbase, pstop, pdone := startTriqd(t, pcfg)
	waitReady(t, pbase)

	rcfg := config{
		replicaOf:     pbase,
		walDir:        filepath.Join(t.TempDir(), "replica"),
		data:          writeFile(t, "decoy.nt", "decoy p o .\n"), // must be ignored
		drainTimeout:  5 * time.Second,
		stalenessWait: 2 * time.Second,
	}
	rbase, rstop, rdone := startTriqd(t, rcfg)
	m := waitReplica(t, rbase)
	if m["primary"] != pbase {
		t.Fatalf("readyz primary = %v, want %s", m["primary"], pbase)
	}

	// Write to the primary; the ack's epoch is the read-your-writes token on
	// the replica.
	body, _ := json.Marshal(map[string]string{"triples": "Shuttle partOf TheAirline .\n"})
	resp, err := http.Post(pbase+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary insert = %d, body %s", resp.StatusCode, raw)
	}
	var mr struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatal(err)
	}

	qbody, _ := json.Marshal(map[string]any{"program": testProgram, "min_epoch": mr.Epoch})
	resp, err = http.Post(rbase+"/query", "application/json", bytes.NewReader(qbody))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	epochHdr := resp.Header.Get("X-Triq-Epoch")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica min-epoch read = %d, body %s", resp.StatusCode, raw)
	}
	var qr struct {
		Rows  []string `json:"rows"`
		Epoch uint64   `json:"epoch"`
	}
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 3 || qr.Epoch < mr.Epoch || epochHdr == "" {
		t.Fatalf("replica read rows=%v epoch=%d hdr=%q, want the write visible at >= %d",
			qr.Rows, qr.Epoch, epochHdr, mr.Epoch)
	}

	// Writes to the replica are refused toward the primary.
	resp, err = http.Post(rbase+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	primaryHdr := resp.Header.Get("X-Triq-Primary")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || primaryHdr != pbase {
		t.Fatalf("replica insert = %d X-Triq-Primary=%q, want 503 toward %s",
			resp.StatusCode, primaryHdr, pbase)
	}

	// The primary dies; the API promotes the replica into a writable primary.
	pstop <- os.Interrupt
	if err := <-pdone; err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(rbase+"/repl/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote = %d", resp.StatusCode)
	}
	resp, err = http.Post(rbase+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-promote insert = %d, body %s", resp.StatusCode, raw)
	}

	rstop <- os.Interrupt
	if err := <-rdone; err != nil {
		t.Fatal(err)
	}
}

// TestTriqdReplicaFlagValidation: promote/proxy flags demand -replica-of,
// and -replica-of alone is a valid boot mode.
func TestTriqdReplicaFlagValidation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), config{promoteOnLoss: true}, ln, make(chan os.Signal)); err == nil {
		t.Fatal("want an error for -promote-on-loss without -replica-of")
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), config{data: "x.nt", proxyWrites: true}, ln2, make(chan os.Signal)); err == nil {
		t.Fatal("want an error for -proxy-writes without -replica-of")
	}
}
