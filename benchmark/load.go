package main

// The end-to-end side: a child triqd, closed-loop HTTP clients that check
// every answer against the oracles, and the crash-recovery audit. Everything
// here goes through triqd's flags and its HTTP contract only.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// child is one running triqd.
type child struct {
	cmd    *exec.Cmd
	base   string
	log    bytes.Buffer  // its stderr, shown when it fails
	exited chan struct{} // closed once Wait has returned
}

// startTriqd launches triqd on a free loopback port and waits until /readyz
// answers 200. The caller must kill the child it gets back.
func startTriqd(bin string, args ...string) (*child, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("find a free port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := &child{base: "http://" + addr, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.Stderr = &c.log
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start triqd: %w", err)
	}
	children.Store(c, true)
	go func() { c.cmd.Wait(); children.Delete(c); close(c.exited) }()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		select {
		case <-c.exited:
			return nil, fmt.Errorf("triqd exited during start-up:\n%s", c.log.String())
		default:
		}
		if resp, err := http.Get(c.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.kill()
	return nil, fmt.Errorf("triqd not ready after 30s:\n%s", c.log.String())
}

// kill ends the child with SIGKILL and waits until it is gone. The benchmark
// never needs a graceful drain: every session's data is thrown away.
func (c *child) kill() {
	c.cmd.Process.Signal(syscall.SIGKILL)
	<-c.exited
}

// children holds every triqd that is still running, for the signal handler.
var children sync.Map

func killChildren() {
	children.Range(func(c, _ any) bool { c.(*child).kill(); return true })
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// post sends one JSON request on the client's single connection and decodes
// a 200 reply into out.
func post(hc *http.Client, url string, body []byte, out any) (int, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 300))
		return 0, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	return len(raw), json.Unmarshal(raw, out)
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// queryReply is the part of triqd's QueryResponse the checks need.
type queryReply struct {
	Rows       []string `json:"rows"`
	Incomplete bool     `json:"incomplete"`
	Epoch      uint64   `json:"epoch"`
}

// ask posts a read and checks it against the oracle.
func ask(hc *http.Client, url string, body []byte, expect func(epoch uint64) digest) (queryReply, error) {
	var rep queryReply
	if _, err := post(hc, url, body, &rep); err != nil {
		return rep, err
	}
	want, got := expect(rep.Epoch), digestOf(rep.Rows)
	if rep.Incomplete || got != want {
		return rep, fmt.Errorf("wrong answer at epoch %d: %d rows (hash %x), want %d (hash %x)",
			rep.Epoch, got.n, got.sum, want.n, want.sum)
	}
	return rep, nil
}

// writer is the write mix's single writer. It alternates /insert and /delete
// of batches 0, 1, 2, … and remembers what the server has acknowledged.
type writer struct {
	hc       *http.Client
	in       *inputs
	base     string
	k        int    // batch in play
	inserted bool   // batch k is acknowledged as present
	epoch    uint64 // last acknowledged store epoch
}

func (w *writer) once() error {
	path := "/insert"
	if w.inserted {
		path = "/delete"
	}
	var rep struct {
		Epoch   uint64 `json:"epoch"`
		Applied int    `json:"applied"`
		Durable bool   `json:"durable"`
	}
	if _, err := post(w.hc, w.base+path, mutationBody(w.in.batch(w.k)), &rep); err != nil {
		return err
	}
	if rep.Applied != batchTriples || rep.Epoch != w.epoch+1 || !rep.Durable {
		return fmt.Errorf("%s batch %d: applied %d at epoch %d durable=%v, want %d at epoch %d durable",
			path, w.k, rep.Applied, rep.Epoch, rep.Durable, batchTriples, w.epoch+1)
	}
	w.epoch = rep.Epoch
	if w.inserted {
		w.k++
	}
	w.inserted = !w.inserted
	return nil
}

// durableFlags are what the write mix adds to triqd's defaults, besides the
// WAL directory.
var durableFlags = []string{"-wal-sync", "always", "-materialize", "-checkpoint-every", "16"}

// session is one set-up triqd with its clients.
type session struct {
	w      *workload
	in     *inputs
	bin    string
	dir    string // data file and, when durable, the WAL directory
	args   []string
	srv    *child
	reads  []func() error // one closed-loop reader each
	writer *writer
}

// tally is what one load phase observed.
type tally struct {
	reads, writes []time.Duration
	attempted     int
	failed        int
	firstErr      error
	elapsed       time.Duration
}

func (t *tally) ops() int { return len(t.reads) + len(t.writes) }

// setUp writes the workload's inputs under dir, starts triqd on them and
// warms it up with warm requests per client. The returned duration is the
// set-up time a user waits: files written → process ready → warm.
func setUp(w *workload, in *inputs, bin, dir string, warm int) (*session, time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	data := filepath.Join(dir, "graph.nt")
	if err := os.WriteFile(data, []byte(w.graph(in)), 0o644); err != nil {
		return nil, 0, err
	}
	s := &session{w: w, in: in, bin: bin, dir: dir}
	s.args = []string{"-data", data, "-trace-seed", fmt.Sprint(in.seed)}
	if w.durable {
		s.args = append(append(s.args, "-wal-dir", filepath.Join(dir, "wal")), durableFlags...)
	}
	var err error
	if s.srv, err = startTriqd(bin, s.args...); err != nil {
		return nil, 0, err
	}
	readers := clients
	if w.durable {
		readers--
		s.writer = &writer{hc: newHTTPClient(), in: in, base: s.srv.base, epoch: 1}
	}
	path, body := w.request(in)
	for i := 0; i < readers; i++ {
		hc, url := newHTTPClient(), s.srv.base+path
		s.reads = append(s.reads, func() error {
			_, err := ask(hc, url, body, func(e uint64) digest { return w.expect(in, e) })
			return err
		})
	}
	// Warm-up: the readers first, alone, so that the first read of a durable
	// server builds its materialization at a quiet epoch and installs it;
	// then the writer, whose commits the materializer now maintains.
	for _, side := range []side{onlyReaders, onlyWriter} {
		if t := s.load(side, warm, 0); t.failed > 0 {
			s.close()
			return nil, 0, fmt.Errorf("%s warm-up: %w", w.name, t.firstErr)
		}
	}
	return s, time.Since(start), nil
}

func (s *session) close() {
	s.srv.kill()
	os.RemoveAll(s.dir)
}

// side selects the clients a load phase drives.
type side int

const (
	onlyReaders side = 1 << iota
	onlyWriter
	everyone = onlyReaders | onlyWriter
)

// load runs the chosen clients in a closed loop: each sends its next request
// only after the previous reply. A client stops after perClient requests when
// that is positive, else once d has passed; a request in flight is finished
// and counted.
func (s *session) load(who side, perClient int, d time.Duration) tally {
	return s.loadMix(who, perClient, perClient, d)
}

// loadMix is load with separate request counts for a reader and the writer.
func (s *session) loadMix(who side, perReader, perWriter int, d time.Duration) tally {
	var mu sync.Mutex
	var t tally
	start := time.Now()
	loop := func(op func() error, lat *[]time.Duration, perClient int) {
		for n := 0; ; n++ {
			if perClient > 0 && n >= perClient || perClient <= 0 && time.Since(start) >= d {
				return
			}
			t0 := time.Now()
			err := op()
			took := time.Since(t0)
			mu.Lock()
			t.attempted++
			if err != nil {
				t.failed++
				if t.firstErr == nil {
					t.firstErr = err
				}
			} else {
				*lat = append(*lat, took)
			}
			mu.Unlock()
			if err != nil && perClient <= 0 {
				time.Sleep(10 * time.Millisecond) // a dead server must not spin the generator
			}
		}
	}
	var wg sync.WaitGroup
	for _, r := range s.reads {
		if who&onlyReaders == 0 {
			break
		}
		wg.Add(1)
		go func() { defer wg.Done(); loop(r, &t.reads, perReader) }()
	}
	if s.writer != nil && who&onlyWriter != 0 {
		wg.Add(1)
		go func() { defer wg.Done(); loop(s.writer.once, &t.writes, perWriter) }()
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	return t
}

// crashAudit is the durability probe. The writer keeps committing while
// triqd is killed with SIGKILL; triqd is then restarted on the same WAL
// directory and must hold exactly the state of the last acknowledged commit,
// or of that commit plus the one request that was in flight. Each violated
// check is a failed operation. It also returns the restart-to-ready time.
func (s *session) crashAudit() (attempted, failed int, restart time.Duration, firstErr error) {
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for s.writer.once() == nil {
		}
	}()
	time.Sleep(250 * time.Millisecond)
	s.srv.kill()
	<-stopped
	acked := s.writer.epoch

	t0 := time.Now()
	srv, err := startTriqd(s.bin, s.args...)
	if err != nil {
		return 1, 1, 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	s.srv = srv
	restart = time.Since(t0)

	check := func(err error) {
		attempted++
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("after SIGKILL at acknowledged epoch %d: %w", acked, err)
			}
		}
	}
	hc := newHTTPClient()
	// The whole transport closure must be the one of the recovered epoch.
	path, body := s.w.request(s.in)
	rep, err := ask(hc, srv.base+path, body, func(e uint64) digest { return s.in.closureAt(e) })
	check(err)
	if err != nil {
		return
	}
	if rep.Epoch < acked || rep.Epoch > acked+1 {
		check(fmt.Errorf("recovered epoch %d", rep.Epoch))
	} else {
		check(nil)
	}
	// A directory triple of the batch in play is present exactly when the
	// recovered epoch is one that follows an insert.
	k, present := int(rep.Epoch/2)-1, digest{}
	if rep.Epoch%2 == 0 {
		present = digestOf([]string{fmt.Sprintf(`{?N→"Writer %d.0"}`, k)})
	}
	probe := sparqlBody(fmt.Sprintf("SELECT ?N WHERE { <person_w%d_0> <name> ?N }", k), "plain")
	_, err = ask(hc, srv.base+"/sparql", probe, func(uint64) digest { return present })
	check(err)
	return
}
