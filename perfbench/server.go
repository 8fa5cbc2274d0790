package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vs2"
)

// server is one running vs2serve or vs2d process, started with an
// admin listener so readiness can be observed from outside.
type server struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser // nil in listen mode
	stdout *bufio.Reader  // nil in listen mode
	name   string         // binary base name, the prefix of its stderr lines

	admin  string        // admin listener address
	listen string        // vs2d -listen address ("" in batch mode)
	setup  time.Duration // exec until /readyz answered 200
	pids   []int         // the server process and its shard children

	stderrMu sync.Mutex
	stderr   bytes.Buffer
	stderrCh chan struct{} // closed once stderr reaches EOF

	rss   *rssSampler
	usage time.Duration // user+sys CPU of the process and its reaped children, after wait
}

// readyTimeout bounds one start-up; a server that is not ready by then
// is broken, not slow.
const readyTimeout = 60 * time.Second

// startServer execs bin with args plus "-admin 127.0.0.1:0" and returns
// once /readyz answers 200. In batch mode (listen false) the process
// reads its documents from the returned server's stdin.
func startServer(bin string, args []string, listen bool) (*server, error) {
	s := &server{name: baseName(bin), stderrCh: make(chan struct{})}
	s.cmd = exec.Command(bin, append(append([]string(nil), args...), "-admin", "127.0.0.1:0")...)
	var err error
	if !listen {
		if s.stdin, err = s.cmd.StdinPipe(); err != nil {
			return nil, err
		}
		out, err := s.cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		s.stdout = bufio.NewReaderSize(out, 1<<20)
	}
	errPipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	addrs := make(chan [2]string, 4) // at most two announcements per process
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", s.name, err)
	}
	go s.readStderr(errPipe, addrs)

	deadline := time.After(readyTimeout)
	for s.admin == "" || (listen && s.listen == "") {
		select {
		case a := <-addrs:
			if a[0] == "admin" {
				s.admin = a[1]
			} else {
				s.listen = a[1]
			}
		case <-s.stderrCh:
			s.kill()
			return nil, fmt.Errorf("%s exited before it was ready: %s", s.name, s.stderrTail())
		case <-deadline:
			s.kill()
			return nil, fmt.Errorf("%s announced no admin address within %v", s.name, readyTimeout)
		}
	}
	body, err := waitReady(s.admin, time.Now().Add(readyTimeout))
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	s.setup = time.Since(start)
	s.pids = append([]int{s.cmd.Process.Pid}, shardPIDs(body)...)
	s.rss = startRSSSampler(s.pids)
	return s, nil
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// readStderr keeps the child's stderr drained and captured, announcing
// the admin and listen addresses as the binaries print them.
func (s *server) readStderr(r io.Reader, addrs chan<- [2]string) {
	defer close(s.stderrCh)
	adminPrefix := s.name + ": admin listening on "
	listenPrefix := s.name + ": listening on "
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		s.stderrMu.Lock()
		s.stderr.WriteString(line)
		s.stderrMu.Unlock()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, adminPrefix):
			addrs <- [2]string{"admin", strings.TrimPrefix(trimmed, adminPrefix)}
		case strings.HasPrefix(trimmed, listenPrefix):
			addrs <- [2]string{"listen", strings.TrimPrefix(trimmed, listenPrefix)}
		}
		if err != nil {
			return
		}
	}
}

// waitReady polls /readyz until it answers 200 and returns the body.
func waitReady(addr string, deadline time.Time) ([]byte, error) {
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && rerr == nil {
				return body, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("/readyz not ready at %s", addr)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// shardPIDs extracts the shard children's PIDs from a vs2d health
// document; vs2serve's has none.
func shardPIDs(body []byte) []int {
	var h struct {
		Detail struct {
			Fleet struct {
				Shards []struct {
					PID int `json:"pid"`
				} `json:"shards"`
			} `json:"fleet"`
		} `json:"detail"`
	}
	if json.Unmarshal(body, &h) != nil {
		return nil
	}
	var pids []int
	for _, sh := range h.Detail.Fleet.Shards {
		if sh.PID > 0 {
			pids = append(pids, sh.PID)
		}
	}
	return pids
}

// wait reaps the process and records its CPU time, which includes
// every child the process reaped itself (vs2d's shards).
func (s *server) wait() error {
	err := s.cmd.Wait()
	<-s.stderrCh
	s.rss.stop()
	if ps := s.cmd.ProcessState; ps != nil {
		s.usage = ps.UserTime() + ps.SystemTime()
	}
	return err
}

// stop ends a listen-mode server the way an operator does: SIGTERM,
// then an orderly drain.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	return s.wait()
}

// kill ends a server that failed to start and reaps it.
func (s *server) kill() {
	if s.stdin != nil {
		s.stdin.Close()
	}
	s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	s.cmd.Wait()         //nolint:errcheck
	<-s.stderrCh
	s.rss.stop()
}

// stderrTail returns the last few hundred bytes of captured stderr.
func (s *server) stderrTail() string {
	s.stderrMu.Lock()
	defer s.stderrMu.Unlock()
	b := s.stderr.Bytes()
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// metrics decodes the snapshot a server started with -metrics prints
// on stderr after its run, behind a "<name>: metrics:" line.
func (s *server) metrics() (vs2.MetricsSnapshot, error) {
	s.stderrMu.Lock()
	defer s.stderrMu.Unlock()
	marker := []byte(s.name + ": metrics:\n")
	i := bytes.LastIndex(s.stderr.Bytes(), marker)
	if i < 0 {
		return vs2.MetricsSnapshot{}, errors.New("no metrics snapshot on stderr")
	}
	var snap vs2.MetricsSnapshot
	dec := json.NewDecoder(bytes.NewReader(s.stderr.Bytes()[i+len(marker):]))
	if err := dec.Decode(&snap); err != nil {
		return vs2.MetricsSnapshot{}, fmt.Errorf("metrics snapshot: %w", err)
	}
	return snap, nil
}

// rssSampler tracks the peak resident set (VmHWM) of a fixed set of
// processes by polling /proc while they run. VmHWM only grows, so the
// last successful read of each process is its peak up to that moment.
type rssSampler struct {
	mu    sync.Mutex
	peak  map[int]int64 // pid -> VmHWM in KiB
	done  chan struct{}
	ended chan struct{}
	once  sync.Once
}

const rssInterval = 20 * time.Millisecond

func startRSSSampler(pids []int) *rssSampler {
	r := &rssSampler{peak: map[int]int64{}, done: make(chan struct{}), ended: make(chan struct{})}
	go func() {
		defer close(r.ended)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			r.sample(pids)
			select {
			case <-r.done:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

func (r *rssSampler) sample(pids []int) {
	for _, pid := range pids {
		if kb, ok := readHWM(pid); ok {
			r.mu.Lock()
			if kb > r.peak[pid] {
				r.peak[pid] = kb
			}
			r.mu.Unlock()
		}
	}
}

// stop ends the sampling goroutine and waits for it; nil-safe and
// idempotent.
func (r *rssSampler) stop() {
	if r == nil {
		return
	}
	r.once.Do(func() { close(r.done) })
	<-r.ended
}

// totalMB is the sum of the peaks seen, in MiB.
func (r *rssSampler) totalMB() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var kb int64
	for _, v := range r.peak {
		kb += v
	}
	return float64(kb) / 1024
}

// readHWM reads a process's peak resident set size in KiB.
func readHWM(pid int) (int64, bool) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

// hostCPU reads the host's cumulative steal and total CPU ticks from
// /proc/stat. Steal is time the hypervisor ran something else while a
// virtual CPU had work: it lengthens wall-clock figures without
// showing in the servers' own CPU time.
func hostCPU() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9 and 10) are already counted
		// in user and nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}
