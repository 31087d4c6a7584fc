package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rramft/internal/serve"
)

// wireConns is the number of TCP connections the generator opens: one per
// core of the 2-core machine the benchmark was sized on.
const wireConns = 2

// readyTimeout bounds how long a started server may take to print its
// listen address.
const readyTimeout = 30 * time.Second

// buildServer compiles cmd/rramft-serve from the repository at root into
// dir and returns the binary's path and how long the build took.
func buildServer(root, dir string) (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "rramft-serve"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rramft-serve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("building rramft-serve: %w", err)
	}
	return bin, time.Since(t0), nil
}

var (
	listenRE = regexp.MustCompile(`listening on (\S+)`)
	debugRE  = regexp.MustCompile(`pprof/expvar on http://(\S+)/debug/`)
)

// server is one running rramft-serve process. Its stderr is drained for the
// whole of its life so the process can never block on a full pipe.
type server struct {
	cmd         *exec.Cmd
	addr, debug string
	drained     chan struct{}
	stopOnce    sync.Once

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startServer runs the binary on a loopback port and waits for its
// "listening" line. With debug it also serves /debug/vars.
func startServer(bin string, debug bool) (*server, error) {
	args := []string{"-listen", "127.0.0.1:0", "-seed", "1"}
	if debug {
		args = append(args, "-debug-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	dieWithParent(cmd)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rramft-serve: %w", err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	cleanups.add(s.stop)
	ready := make(chan struct{})
	go s.drain(pipe, debug, ready)
	select {
	case <-ready:
		return s, nil
	case <-s.drained:
		s.stop()
		return nil, fmt.Errorf("rramft-serve exited before listening: %s", s.lastLines())
	case <-time.After(readyTimeout):
		s.stop()
		return nil, fmt.Errorf("rramft-serve printed no listen address within %s: %s", readyTimeout, s.lastLines())
	}
}

// drain reads stderr until the process exits, publishing the listen (and
// debug) address by closing ready once both are known.
func (s *server) drain(r io.Reader, debug bool, ready chan struct{}) {
	defer close(s.drained)
	sc := bufio.NewScanner(r)
	var addr, dbg string
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		if s.tail = append(s.tail, line); len(s.tail) > 5 {
			s.tail = s.tail[1:]
		}
		s.mu.Unlock()
		if m := listenRE.FindStringSubmatch(line); m != nil {
			addr = m[1]
		}
		if m := debugRE.FindStringSubmatch(line); m != nil {
			dbg = m[1]
		}
		if ready != nil && addr != "" && (!debug || dbg != "") {
			s.addr, s.debug = addr, dbg
			close(ready)
			ready = nil
		}
	}
}

func (s *server) lastLines() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// stop kills the process and waits for it and its stderr reader to end.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Kill() // an already exited process reports an error; Wait still reaps it
		<-s.drained
		_ = s.cmd.Wait() // a killed process always reports a non-nil status
	})
}

// debugVars scrapes the numeric entries of the server's metric registry
// from /debug/vars.
func (s *server) debugVars() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.debug + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var all struct {
		Rramft map[string]any `json:"rramft"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		return nil, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	out := map[string]float64{}
	for k, v := range all.Rramft {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// wireResponse is the response line's shape (see serve.EncodeResponse).
type wireResponse struct {
	ID        string `json:"id"`
	Class     int    `json:"class"`
	LatencyNs int64  `json:"latency_ns"`
	Error     string `json:"error"`
}

// wireOutcome maps a response's error text back to its outcome.
func wireOutcome(msg string) outcome {
	switch msg {
	case "":
		return answeredOK
	case serve.ErrOverloaded.Error(), serve.ErrDraining.Error():
		return rejected
	case serve.ErrDeadlineExceeded.Error():
		return timedOut
	default:
		return errored
	}
}

// wireClient drives a server over wireConns TCP connections: request i of
// a phase goes out on connection i%wireConns, and one reader per
// connection matches answers to requests by id ("<phase letter><index>").
type wireClient struct {
	conns    []net.Conn
	payloads [][]byte // pre-encoded JSON feature arrays, one per test sample
	buf      []byte
	phases   [2]atomic.Pointer[phase] // 'n'ominal, 'p'eak
	readers  sync.WaitGroup
}

func dialWire(addr string, payloads [][]byte) (*wireClient, error) {
	w := &wireClient{payloads: payloads}
	for c := 0; c < wireConns; c++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			w.close()
			return nil, err
		}
		w.conns = append(w.conns, conn)
		w.readers.Add(1)
		go w.read(c, conn)
	}
	return w, nil
}

func phaseSlot(letter byte) int {
	if letter == 'p' {
		return 1
	}
	return 0
}

// sender returns the phase's sender. The phase becomes visible to the
// readers before its first request is written.
func (w *wireClient) sender(p *phase) sender {
	letter := p.name[0]
	w.phases[phaseSlot(letter)].Store(p)
	return func(p *phase, i int) {
		b := append(w.buf[:0], `{"id":"`...)
		b = append(b, letter)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `","x":`...)
		b = append(b, w.payloads[p.sample[i]]...)
		b = append(b, "}\n"...)
		w.buf = b
		p.reqs[i].sent = p.now()
		if _, err := w.conns[i%wireConns].Write(b); err != nil {
			p.finish(i, refused, -1, 0)
		}
	}
}

// read matches one connection's answers to their requests until the
// connection closes.
func (w *wireClient) read(c int, conn net.Conn) {
	defer w.readers.Done()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		var r wireResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || len(r.ID) < 2 {
			w.violation()
			continue
		}
		p := w.phases[phaseSlot(r.ID[0])].Load()
		i, err := strconv.Atoi(r.ID[1:])
		if p == nil || p.name[0] != r.ID[0] || err != nil || i < 0 || i >= len(p.reqs) || i%wireConns != c {
			w.violation()
			continue
		}
		p.finish(i, wireOutcome(r.Error), r.Class, r.LatencyNs)
	}
}

// violation records an answer that matches no request, against whichever
// phase is current.
func (w *wireClient) violation() {
	for s := len(w.phases) - 1; s >= 0; s-- {
		if p := w.phases[s].Load(); p != nil {
			p.violations.Add(1)
			return
		}
	}
}

// close half-closes every connection, so the server finishes writing
// outstanding answers and closes its side, then waits for the readers.
func (w *wireClient) close() {
	for _, c := range w.conns {
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.CloseWrite() // the full Close below releases the socket either way
		}
	}
	done := make(chan struct{})
	go func() { w.readers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainWait):
	}
	for _, c := range w.conns {
		c.Close()
	}
	w.readers.Wait()
}

// findRoot walks up from the working directory to the repository root: the
// directory holding cmd/rramft-serve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rramft-serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory holding cmd/rramft-serve) above the working directory")
		}
		dir = parent
	}
}
