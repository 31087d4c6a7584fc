package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rramft/internal/cluster"
	"rramft/internal/core"
	"rramft/internal/serve"
)

func validServeOptions() options {
	return options{
		Iters: 600, TrainN: 600, Faults: 0.05,
		RepairEvery: 50 * time.Millisecond, RepairPolicy: "golden",
		MaxBatch: 8, Timeout: time.Second, Replicas: 1,
	}
}

func TestValidateServeFlags(t *testing.T) {
	if err := validServeOptions().validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*options)
	}{
		{"zero iters", func(o *options) { o.Iters = 0 }},
		{"negative train-n", func(o *options) { o.TrainN = -1 }},
		{"negative faults", func(o *options) { o.Faults = -0.1 }},
		{"faults at one", func(o *options) { o.Faults = 1.0 }},
		{"zero repair-every", func(o *options) { o.RepairEvery = 0 }},
		{"unknown repair policy", func(o *options) { o.RepairPolicy = "magic" }},
		{"zero max-batch", func(o *options) { o.MaxBatch = 0 }},
		{"zero timeout", func(o *options) { o.Timeout = 0 }},
		{"zero replicas", func(o *options) { o.Replicas = 0 }},
		{"negative replicas", func(o *options) { o.Replicas = -2 }},
		{"bad chaos kind", func(o *options) { o.Chaos = "meteor@10ms" }},
		{"chaos missing offset", func(o *options) { o.Chaos = "burst:frac=0.1" }},
		{"chaos bad param", func(o *options) { o.Chaos = "burst@10ms:frac=2" }},
	}
	for _, tc := range cases {
		o := validServeOptions()
		tc.mutate(&o)
		if err := o.validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", tc.name, o)
		}
	}
	o := validServeOptions()
	o.Chaos = serve.CanonicalCampaign
	if err := o.validate(); err != nil {
		t.Errorf("canonical campaign rejected: %v", err)
	}
}

// testEngine builds a small software-only engine — the stream plumbing
// under test is independent of the crossbar machinery.
func testEngine(t *testing.T) *serve.Engine {
	t.Helper()
	const inSize = 6
	m := core.BuildMLP(inSize, []int{5}, 3, core.DefaultBuildOptions(17))
	e := serve.NewEngine(m, inSize, serve.DefaultConfig())
	t.Cleanup(e.Close)
	return e
}

// wireResp mirrors the response wire format for test-side decoding.
type wireResp struct {
	ID    string `json:"id"`
	Class int    `json:"class"`
	Error string `json:"error,omitempty"`
}

func TestServeStreamRoundTrip(t *testing.T) {
	e := testEngine(t)
	var in strings.Builder
	want := map[string]bool{}
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("req-%d", i)
		want[id] = true
		x := make([]float64, e.InSize())
		for j := range x {
			x[j] = float64(i*j%7)/7 - 0.5
		}
		b, err := json.Marshal(map[string]any{"id": id, "x": x})
		if err != nil {
			t.Fatal(err)
		}
		in.Write(b)
		in.WriteByte('\n')
	}
	in.WriteString("\n")                              // blank line: skipped, no response
	in.WriteString("{not json}\n")                    // malformed: error response
	in.WriteString(`{"id":"short","x":[1,2]}` + "\n") // wrong feature count: error response

	var out bytes.Buffer
	if err := serveStream(e, strings.NewReader(in.String()), &out); err != nil {
		t.Fatalf("serveStream: %v", err)
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 14 {
		t.Fatalf("got %d responses, want 14 (12 ok + 2 errors):\n%s", len(lines), out.String())
	}
	okN, errN := 0, 0
	for _, ln := range lines {
		var r wireResp
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("unparseable response %q: %v", ln, err)
		}
		if r.Error != "" {
			errN++
			if r.Class != -1 {
				t.Errorf("error response %q has class %d, want -1", ln, r.Class)
			}
			wantID := "" // the malformed line has no readable id
			if strings.Contains(r.Error, "feature count") {
				wantID = "short" // valid JSON: its id is echoed
			}
			if r.ID != wantID {
				t.Errorf("error response %q has id %q, want %q", ln, r.ID, wantID)
			}
			continue
		}
		okN++
		if !want[r.ID] {
			t.Errorf("response for unknown or duplicate id %q", r.ID)
		}
		delete(want, r.ID)
		if r.Class < 0 || r.Class >= e.Classes() {
			t.Errorf("id %s: class %d out of range [0,%d)", r.ID, r.Class, e.Classes())
		}
	}
	if okN != 12 || errN != 2 {
		t.Errorf("got %d ok + %d error responses, want 12 + 2", okN, errN)
	}
}

// TestServeStreamClusterBackend runs the same stream plumbing over a
// 2-replica dispatcher — the wire protocol must be identical regardless
// of what backs Submit.
func TestServeStreamClusterBackend(t *testing.T) {
	const inSize = 6
	d, err := cluster.New(cluster.Config{
		Replicas: 2,
		Seed:     17,
		InSize:   inSize,
		NewModel: func(id, gen int) *core.Model {
			return core.BuildMLP(inSize, []int{5}, 3, core.DefaultBuildOptions(int64(17+id)))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	var in strings.Builder
	for i := 0; i < 8; i++ {
		x := make([]float64, inSize)
		b, _ := json.Marshal(map[string]any{"id": fmt.Sprintf("c-%d", i), "x": x})
		in.Write(b)
		in.WriteByte('\n')
	}
	var out bytes.Buffer
	if err := serveStream(d, strings.NewReader(in.String()), &out); err != nil {
		t.Fatalf("serveStream: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d responses, want 8:\n%s", len(lines), out.String())
	}
	seen := map[string]bool{}
	for _, ln := range lines {
		var r wireResp
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("unparseable response %q: %v", ln, err)
		}
		if r.Error != "" {
			t.Errorf("response %q errored", ln)
		}
		if seen[r.ID] {
			t.Errorf("duplicate response id %q", r.ID)
		}
		seen[r.ID] = true
	}
}

// transientAcceptErr mimics the temporary net.Error a loaded kernel hands
// back from accept (EMFILE, ECONNABORTED, timeouts).
type transientAcceptErr struct{ timeout bool }

func (e transientAcceptErr) Error() string   { return "accept: resource temporarily unavailable" }
func (e transientAcceptErr) Timeout() bool   { return e.timeout }
func (e transientAcceptErr) Temporary() bool { return true }

// flakyListener replays a scripted Accept sequence — errors and real
// connections interleaved — then fails permanently with net.ErrClosed.
type flakyListener struct {
	mu      sync.Mutex
	script  []any // error or net.Conn, consumed in order
	accepts int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.accepts++
	if len(l.script) == 0 {
		return nil, net.ErrClosed
	}
	next := l.script[0]
	l.script = l.script[1:]
	if err, ok := next.(error); ok {
		return nil, err
	}
	return next.(net.Conn), nil
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4zero} }

// TestServeListenerSurvivesTransientAcceptErrors is the accept-loop
// hardening regression: transient net.Errors must not kill the server — the
// loop backs off, keeps accepting, still serves the connection that follows,
// and only a permanent error (a closed listener) ends it.
func TestServeListenerSurvivesTransientAcceptErrors(t *testing.T) {
	e := testEngine(t)
	server, client := net.Pipe()
	ln := &flakyListener{script: []any{
		transientAcceptErr{timeout: true},
		transientAcceptErr{timeout: false}, // Temporary-only, like EMFILE
		server,
		transientAcceptErr{timeout: true},
	}}

	done := make(chan error, 1)
	go func() { done <- serveListener(e, ln) }()

	// The connection accepted between the failures must still be served.
	client.SetDeadline(time.Now().Add(10 * time.Second))
	x := make([]float64, e.InSize())
	b, _ := json.Marshal(map[string]any{"id": "flaky-0", "x": x})
	if _, err := client.Write(append(b, '\n')); err != nil {
		t.Fatal(err)
	}
	var r wireResp
	if err := json.NewDecoder(client).Decode(&r); err != nil {
		t.Fatalf("reading response across flaky accepts: %v", err)
	}
	if r.ID != "flaky-0" || r.Error != "" {
		t.Errorf("bad response across flaky accepts: %+v", r)
	}
	client.Close()

	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("serveListener returned %v, want net.ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveListener did not return after permanent accept error")
	}
	if ln.accepts != 5 { // 2 transient + conn + 1 transient + permanent
		t.Errorf("listener saw %d accepts, want 5", ln.accepts)
	}
}

func TestIsTransientAccept(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"timeout", transientAcceptErr{timeout: true}, true},
		{"temporary only", transientAcceptErr{timeout: false}, true},
		{"closed listener", net.ErrClosed, false},
		{"wrapped closed", fmt.Errorf("accept: %w", net.ErrClosed), false},
		{"plain error", errors.New("boom"), false},
	}
	for _, tc := range cases {
		if got := isTransientAccept(tc.err); got != tc.want {
			t.Errorf("%s: isTransientAccept = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestServeListenerTCP drives one real TCP connection end to end: dial,
// send two requests, read two responses, close.
func TestServeListenerTCP(t *testing.T) {
	e := testEngine(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go serveListener(e, ln)
	defer ln.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	x := make([]float64, e.InSize())
	for i := 0; i < 2; i++ {
		b, _ := json.Marshal(map[string]any{"id": fmt.Sprintf("tcp-%d", i), "x": x})
		if _, err := conn.Write(append(b, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	dec := json.NewDecoder(conn)
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		var r wireResp
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("reading response %d: %v", i, err)
		}
		if r.Error != "" {
			t.Errorf("response %d errored: %s", i, r.Error)
		}
		seen[r.ID] = true
	}
	if !seen["tcp-0"] || !seen["tcp-1"] {
		t.Errorf("missing response ids: %v", seen)
	}
}
