package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"vs2"
	"vs2/internal/eval"
)

// workload is one traffic mix driven through one of the binaries.
type workload struct {
	name   string
	bin    string   // vs2serve or vs2d
	args   []string // besides -task, which comes from the corpus
	spec   corpusSpec
	online bool
	state  bool // give the binary a fresh -state directory (per-shard journals)
	// probeDocs caps the documents the traced run sends through the
	// shard hop one at a time.
	probeDocs int
}

// The load comes from this one process; the servers get two workers in
// total, one per core of the two-core reference host.
const (
	// onlineRatePerConn is the open-loop send rate of each of the two
	// connections of flyers-online, in documents per second. Together
	// (30 docs/s) they stay well below the fleet's capacity of roughly
	// 100 D3 documents per second on two cores.
	onlineRatePerConn = 15
	onlineConns       = 2
	// setupProbes is how many extra start-ups each run times on top of
	// the ones its measured rounds pay, so setup_s is a median.
	setupProbes = 7
)

var workloads = []workload{
	{
		name: "tax-forms",
		bin:  "vs2serve",
		args: []string{"-workers", "2", "-template-cache", "256"},
		// The 20 form faces, each twice.
		spec: corpusSpec{gen: vs2.GenerateTaxForms, task: vs2.NISTTaxTask, taskFlag: "tax", n: 40},
		// D1 documents take ~330 ms each; 20 of them keep the traced run short.
		probeDocs: 20,
	},
	{
		name:      "posters-fleet",
		bin:       "vs2d",
		args:      []string{"-shards", "2", "-workers", "1"},
		spec:      corpusSpec{gen: vs2.GenerateEventPosters, task: vs2.EventPosterTask, taskFlag: "events", n: 200},
		state:     true,
		probeDocs: 100,
	},
	{
		name: "flyers-online",
		bin:  "vs2d",
		args: []string{"-listen", "127.0.0.1:0", "-shards", "2", "-workers", "1"},
		// One stream as long as the run: n is set from --seconds.
		spec:      corpusSpec{gen: vs2.GenerateRealEstateFlyers, task: vs2.RealEstateTask, taskFlag: "realestate"},
		online:    true,
		probeDocs: 100,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what every run shares: where the binaries are, a scratch
// directory inside the checkout, and the checked corpus.
type env struct {
	binDir  string
	workDir string
	corpus  *corpus
	checker *checker
}

// start launches the workload's server with extra flags, plus a fresh
// state directory where the workload asks for one.
func (e *env) start(w workload, extra ...string) (*server, error) {
	args := append([]string{"-task", e.corpus.taskFlag}, w.args...)
	args = append(args, extra...)
	if w.state {
		dir, err := os.MkdirTemp(e.workDir, "state-")
		if err != nil {
			return nil, err
		}
		args = append(args, "-state", dir)
	}
	return startServer(filepath.Join(e.binDir, w.bin), args, w.online)
}

// round is one fresh server's run over the whole corpus: a batch, or
// for the online workload one stream as long as the run.
type round struct {
	rate      float64   // documents answered per second
	latencies []float64 // ms, one per answered document
	cpuMS     float64   // server CPU per document
	rssMB     float64   // summed peak RSS of the server's processes
}

// tally accumulates one run's observations.
type tally struct {
	setups    []float64 // s, exec until ready
	rounds    []round
	pr        eval.PR // served extractions against the ground truth
	attempted int
	failed    int
	degraded  int
	problems  []string
	lateness  []float64 // ms the open-loop generator sent after the due time
}

// absorb folds one checked stream into the tally.
func (t *tally) absorb(c *corpus, sent []int, o outcome) {
	t.attempted += len(sent)
	t.failed += o.failed
	t.degraded += o.degraded
	t.problems = append(t.problems, o.problems...)
	for pos, es := range o.served {
		if es != nil {
			t.pr.Add(eval.EndToEndPR(es, c.truth[sent[pos]]))
		}
	}
}

// probeSetup starts the workload's server and shuts it down at once,
// timing only the start-up.
func (e *env) probeSetup(w workload, t *tally) error {
	srv, err := e.start(w)
	if err != nil {
		return err
	}
	t.setups = append(t.setups, srv.setup.Seconds())
	if w.online {
		// vs2d installs its SIGTERM handler just before it accepts; an
		// empty connection served to the end proves it is accepting, so
		// the signal below drains the fleet instead of killing the front.
		if err := emptyStream(srv.listen); err != nil {
			srv.kill()
			return err
		}
		return srv.stop()
	}
	// An empty batch: the binary reports "no documents" and exits 1,
	// which is the expected end of a probe.
	srv.stdin.Close()
	io.Copy(io.Discard, srv.stdout) //nolint:errcheck
	return srv.reap()
}

// emptyStream opens a connection, half-closes it at once and waits for
// the server to close its side.
func emptyStream(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, conn)
	return err
}

// reap waits for a batch server to exit. A non-zero exit follows from
// failed documents, which the checker counts; only a failure to reap is
// an error.
func (s *server) reap() error {
	var exit *exec.ExitError
	if err := s.wait(); err != nil && !errors.As(err, &exit) {
		return err
	}
	return nil
}

// runRound runs one round of the workload on a fresh server.
func (e *env) runRound(w workload, t *tally, extra ...string) (*server, error) {
	if w.online {
		return e.onlineRound(w, t, extra...)
	}
	return e.batchRound(w, t, extra...)
}

// batchRound streams the whole corpus through the server's stdin as one
// batch and reads every answer line. Each document's latency runs from
// the write of its line to the arrival of its answer.
func (e *env) batchRound(w workload, t *tally, extra ...string) (*server, error) {
	c := e.corpus
	srv, err := e.start(w, extra...)
	if err != nil {
		return nil, err
	}
	t.setups = append(t.setups, srv.setup.Seconds())

	n := len(c.lines)
	sends := make([]time.Time, n)
	var writeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer srv.stdin.Close()
		for i, l := range c.lines {
			sends[i] = time.Now()
			if _, err := srv.stdin.Write(withNewline(l)); err != nil {
				writeErr = err
				return
			}
		}
	}()
	var lines [][]byte
	var arrivals []time.Time
	for {
		line, err := srv.stdout.ReadBytes('\n')
		if len(line) > 1 {
			arrivals = append(arrivals, time.Now())
			lines = append(lines, line[:len(line)-1])
		}
		if err != nil {
			break
		}
	}
	wg.Wait()
	if err := srv.reap(); err != nil {
		return nil, err
	}
	if writeErr != nil {
		t.problems = append(t.problems, fmt.Sprintf("writing the batch: %v", writeErr))
	}

	sent := make([]int, n)
	for i := range sent {
		sent[i] = i
	}
	t.absorb(c, sent, e.checker.check(sent, lines))
	r := round{cpuMS: ms(srv.usage) / float64(n), rssMB: srv.rss.totalMB()}
	for i := range arrivals[:min(len(arrivals), n)] {
		r.latencies = append(r.latencies, ms(arrivals[i].Sub(sends[i])))
	}
	if len(arrivals) > 0 {
		r.rate = rate(len(arrivals), arrivals[len(arrivals)-1].Sub(sends[0]))
	}
	t.rounds = append(t.rounds, r)
	return srv, nil
}

// onlineRound sends the corpus open-loop over onlineConns connections to
// a fresh listen-mode server, connection k taking documents k,
// k+onlineConns, ... at onlineRatePerConn each, offset by half a period
// from each other. A document's latency runs from its due send time to
// the arrival of its answer line; each connection is half-closed after
// its last document.
func (e *env) onlineRound(w workload, t *tally, extra ...string) (*server, error) {
	c := e.corpus
	srv, err := e.start(w, extra...)
	if err != nil {
		return nil, err
	}
	t.setups = append(t.setups, srv.setup.Seconds())

	period := time.Second / onlineRatePerConn
	streams := make([]*stream, onlineConns)
	for k := range streams {
		conn, err := net.Dial("tcp", srv.listen)
		if err != nil {
			srv.stop() //nolint:errcheck
			return nil, err
		}
		st := &stream{conn: conn.(*net.TCPConn)}
		for i := k; i < len(c.lines); i += onlineConns {
			st.sent = append(st.sent, i)
		}
		streams[k] = st
	}
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for k, st := range streams {
		wg.Add(2)
		offset := time.Duration(k) * period / onlineConns
		go func() { defer wg.Done(); st.send(c, start.Add(offset), period) }()
		go func() { defer wg.Done(); st.receive() }()
	}
	wg.Wait()
	srv.rss.sample(srv.pids)
	rss := srv.rss.totalMB()
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping %s: %w", w.bin, err)
	}

	r := round{cpuMS: ms(srv.usage) / float64(len(c.lines)), rssMB: rss}
	var last time.Time
	for _, st := range streams {
		if st.err != nil {
			t.problems = append(t.problems, st.err.Error())
		}
		t.absorb(c, st.sent, e.checker.check(st.sent, st.lines))
		for i, at := range st.arrivals[:min(len(st.arrivals), len(st.due))] {
			r.latencies = append(r.latencies, ms(at.Sub(st.due[i])))
			if at.After(last) {
				last = at
			}
		}
		for i := range st.due {
			t.lateness = append(t.lateness, ms(st.sends[i].Sub(st.due[i])))
		}
	}
	r.rate = rate(len(r.latencies), last.Sub(start))
	t.rounds = append(t.rounds, r)
	return srv, nil
}

// stream is one open-loop client connection.
type stream struct {
	conn     *net.TCPConn
	sent     []int // corpus indexes in send order
	due      []time.Time
	sends    []time.Time
	lines    [][]byte
	arrivals []time.Time
	err      error // first send error
}

func (st *stream) send(c *corpus, start time.Time, period time.Duration) {
	for j, idx := range st.sent {
		due := start.Add(time.Duration(j) * period)
		time.Sleep(time.Until(due))
		st.due = append(st.due, due)
		st.sends = append(st.sends, time.Now())
		if _, err := st.conn.Write(withNewline(c.lines[idx])); err != nil && st.err == nil {
			st.err = fmt.Errorf("send: %w", err)
		}
	}
	if err := st.conn.CloseWrite(); err != nil && st.err == nil {
		st.err = fmt.Errorf("half-close: %w", err)
	}
}

func (st *stream) receive() {
	defer st.conn.Close()
	br := bufio.NewReaderSize(st.conn, 1<<16)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 1 {
			st.arrivals = append(st.arrivals, time.Now())
			st.lines = append(st.lines, line[:len(line)-1])
		}
		if err != nil {
			return
		}
	}
}
