// Command rramft-serve runs a concurrent inference server over a
// crossbar-backed model, with on-line fault detection and repair running in
// the background while requests are served.
//
// The wire protocol is line-delimited JSON: one {"id":"...","x":[...]}
// request per line in, one {"id":"...","class":N,...} response per line
// out. Responses may complete out of order across in-flight requests; use
// ids to correlate. With -listen the server accepts TCP connections;
// without it, it serves stdin to stdout and exits at EOF:
//
//	printf '{"id":"a","x":[%s]}\n' "$(seq -s, 1 256 | sed 's/[0-9]\+/0.1/g')" | rramft-serve
//	rramft-serve -listen localhost:7077 -repair-every 100ms
//	rramft-serve -replicas 4 -rebuild-from ck.rramft
//
// With -replicas N > 1 the trained weights are imaged onto N independent
// replica substrates behind a health-scored router (internal/cluster);
// requests fail over away from replicas that are draining for repair, and
// hopeless replicas are rebuilt from the weight image. -rebuild-from
// sources that image from a training checkpoint instead of the freshly
// trained weights.
//
// The model is the deterministic built-in scenario model (a small MLP
// trained on a synthetic MNIST-like dataset, on crossbars with fabrication
// faults) — this command demonstrates and load-tests the serving layer;
// it is not a production model server.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"rramft/internal/chaos"
	"rramft/internal/cliutil"
	"rramft/internal/cluster"
	"rramft/internal/core"
	"rramft/internal/repair"
	"rramft/internal/serve"
	"rramft/internal/xrand"
)

// options carries the parsed flag values so validation is testable apart
// from flag.Parse and the process exit it triggers.
type options struct {
	Iters, TrainN int
	Faults        float64
	RepairEvery   time.Duration
	RepairPolicy  string
	MaxBatch      int
	Timeout       time.Duration
	Replicas      int
	Chaos         string
}

// validate rejects impossible flag combinations before the model is
// trained, with one clear error naming the offending flag.
func (o options) validate() error {
	if o.Iters <= 0 {
		return fmt.Errorf("-iters must be positive, got %d", o.Iters)
	}
	if o.TrainN <= 0 {
		return fmt.Errorf("-train-n must be positive, got %d", o.TrainN)
	}
	if o.Faults < 0 || o.Faults >= 1 {
		return fmt.Errorf("-faults must be in [0, 1), got %g", o.Faults)
	}
	if o.RepairEvery <= 0 {
		return fmt.Errorf("-repair-every must be positive, got %s", o.RepairEvery)
	}
	if _, err := repair.ByName(o.RepairPolicy); err != nil {
		return fmt.Errorf("-repair-policy: %w", err)
	}
	if o.MaxBatch <= 0 {
		return fmt.Errorf("-max-batch must be positive, got %d", o.MaxBatch)
	}
	if o.Timeout <= 0 {
		return fmt.Errorf("-timeout must be positive, got %s", o.Timeout)
	}
	if o.Replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1, got %d", o.Replicas)
	}
	if _, err := chaos.ParseSchedule(o.Chaos); err != nil {
		return fmt.Errorf("-chaos: %w (kinds: %s)", err, strings.Join(chaos.Kinds(), ", "))
	}
	return nil
}

func main() {
	var (
		listen      = flag.String("listen", "", "TCP listen address (e.g. localhost:7077); empty serves stdin to stdout")
		seed        = flag.Int64("seed", 1, "random seed for the built-in scenario model")
		iters       = flag.Int("iters", 600, "training iterations for the scenario model")
		trainN      = flag.Int("train-n", 600, "training set size for the scenario model")
		faults      = flag.Float64("faults", 0.05, "fabrication fault fraction the model trains around")
		repairOn    = flag.Bool("repair", true, "run the background detect-and-repair maintenance loop [§4, §5.2]")
		repairEvery = flag.Duration("repair-every", 50*time.Millisecond, "period between repair passes")
		policy      = flag.String("repair-policy", "golden", "maintenance policy: golden, paper or dropconnect (see DESIGN.md §11)")
		maxBatch    = flag.Int("max-batch", 8, "largest request batch coalesced into one forward pass")
		timeout     = flag.Duration("timeout", time.Second, "per-request deadline from submission")
		replicas    = flag.Int("replicas", 1, "number of independent replica substrates behind the health-scored router (see DESIGN.md §14)")
		rebuildFrom = flag.String("rebuild-from", "", "checkpoint file whose weights become the replica image (built and rebuilt from) instead of freshly trained ones")
		telemetry   = flag.String("telemetry", "", "write a JSONL telemetry journal of spans and counters to this file (see OBSERVABILITY.md)")
		chaosSpec   = flag.String("chaos", "", "fault campaign driven against the live server: kind@offset[:key=value,...] events joined by ';' (see DESIGN.md §15)")
		debugAddr   = flag.String("debug-addr", "", "serve pprof and expvar debug endpoints on this address (e.g. localhost:6060)")
		helpMD      = flag.Bool("help-md", false, "print the CLI reference as a markdown table and exit")
	)
	flag.Parse()

	if *helpMD {
		cliutil.HelpMD(os.Stdout, "rramft-serve", flag.CommandLine)
		return
	}

	opt := options{
		Iters: *iters, TrainN: *trainN, Faults: *faults,
		RepairEvery: *repairEvery, RepairPolicy: *policy,
		MaxBatch: *maxBatch, Timeout: *timeout, Replicas: *replicas,
		Chaos: *chaosSpec,
	}
	if err := opt.validate(); err != nil {
		log.Fatalf("rramft-serve: %v", err)
	}

	closeJournal, err := cliutil.Telemetry(*telemetry, *debugAddr, cliutil.Header{
		Cmd: "rramft-serve", Seed: *seed, Config: cliutil.FlagValues(flag.CommandLine),
	})
	if err != nil {
		log.Fatalf("rramft-serve: %v", err)
	}
	defer func() {
		if err := closeJournal(); err != nil {
			fmt.Fprintf(os.Stderr, "rramft-serve: closing telemetry journal: %v\n", err)
		}
	}()

	cfg := serve.DefaultScenarioConfig(*seed)
	cfg.Iters = opt.Iters
	cfg.TrainN = opt.TrainN
	cfg.FaultFrac = opt.Faults
	cfg.Serve.MaxBatch = opt.MaxBatch
	cfg.Serve.Timeout = opt.Timeout
	cfg.Repair.Every = opt.RepairEvery
	// validate() already vetted the name; ByName cannot fail here.
	cfg.Repair.Policy, _ = repair.ByName(opt.RepairPolicy)

	log.Printf("rramft-serve: training scenario model (%d iters, %d samples, %.0f%% fabrication faults)",
		opt.Iters, opt.TrainN, opt.Faults*100)
	m, ds := serve.TrainScenarioModel(cfg)

	var b backend
	var chaosTarget chaos.Target
	if opt.Replicas == 1 && *rebuildFrom == "" {
		e := serve.NewEngine(m, ds.InSize(), cfg.Serve)
		defer e.Close()
		if *repairOn {
			if err := e.StartMaintenance(cfg.Repair, xrand.Derive(*seed, "rramft-serve")); err != nil {
				log.Fatalf("rramft-serve: %v", err)
			}
		}
		b = e
		chaosTarget = e.ChaosTarget()
	} else {
		image := cluster.CaptureImage(m)
		if *rebuildFrom != "" {
			ck, err := core.LoadCheckpoint(*rebuildFrom)
			if err != nil {
				log.Fatalf("rramft-serve: -rebuild-from: %v", err)
			}
			image, err = cluster.ImageFromCheckpoint(func() *core.Model {
				return serve.ScenarioModel(cfg, ds)
			}, ck)
			if err != nil {
				log.Fatalf("rramft-serve: -rebuild-from %s does not fit the scenario model: %v", *rebuildFrom, err)
			}
			log.Printf("rramft-serve: replica image loaded from checkpoint %s", *rebuildFrom)
		}
		d, err := cluster.ScenarioDispatcher(cfg, ds, image, opt.Replicas)
		if err != nil {
			log.Fatalf("rramft-serve: %v", err)
		}
		defer d.Close()
		if *repairOn {
			if err := d.StartMaintenance(); err != nil {
				log.Fatalf("rramft-serve: %v", err)
			}
		}
		b = d
		chaosTarget = d.ChaosTarget()
	}
	log.Printf("rramft-serve: ready (%d replicas, %d features in, %d classes out)",
		opt.Replicas, b.InSize(), b.Classes())

	if opt.Chaos != "" {
		// validate() already vetted the spec; ParseSchedule cannot fail here.
		sched, _ := chaos.ParseSchedule(opt.Chaos)
		ce := chaos.NewEngine(sched, chaosTarget, *seed, nil)
		ce.Start()
		defer ce.Stop()
		log.Printf("rramft-serve: chaos campaign armed: %s", sched)
	}

	if *listen == "" {
		if err := serveStream(b, os.Stdin, os.Stdout); err != nil {
			log.Fatalf("rramft-serve: %v", err)
		}
		return
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("rramft-serve: %v", err)
	}
	log.Printf("rramft-serve: listening on %s", ln.Addr())
	if err := serveListener(b, ln); err != nil {
		log.Fatalf("rramft-serve: %v", err)
	}
}

// backend is the engine surface the stream plumbing needs. Both a single
// *serve.Engine and a replicated *cluster.Dispatcher satisfy it, so the
// wire protocol is identical at every -replicas setting.
type backend interface {
	Submit(req *serve.Request) (<-chan serve.Response, error)
	InSize() int
	Classes() int
}

// Accept-retry backoff bounds: transient accept failures (timeouts,
// file-descriptor exhaustion) back off exponentially from acceptBackoffMin
// to acceptBackoffMax instead of spinning the accept loop hot; a successful
// accept resets the backoff.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// serveListener accepts connections until the listener fails permanently,
// one goroutine per connection. A transient net.Error (a timeout, or the
// temporarily-out-of-resources condition EMFILE surfaces as) does not kill
// the server: the loop logs it, sleeps with capped exponential backoff and
// keeps accepting — a saturated or chaos-stricken host degrades to slower
// accepts instead of exiting with clients still connected.
func serveListener(b backend, ln net.Listener) error {
	backoff := acceptBackoffMin
	for {
		conn, err := ln.Accept()
		if err != nil {
			if isTransientAccept(err) {
				log.Printf("rramft-serve: accept: %v (retrying in %s)", err, backoff)
				time.Sleep(backoff)
				if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				continue
			}
			return err
		}
		backoff = acceptBackoffMin
		go func() {
			defer conn.Close()
			if err := serveStream(b, conn, conn); err != nil {
				log.Printf("rramft-serve: %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// isTransientAccept reports whether an accept error is worth retrying: a
// net.Error that is a timeout or declares itself temporary. A closed
// listener (net.ErrClosed) is always permanent.
func isTransientAccept(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return false
	}
	var ne net.Error
	if !errors.As(err, &ne) {
		return false
	}
	if ne.Timeout() {
		return true
	}
	// Temporary is deprecated as an API, but it is still the only signal
	// syscall-level accept errors like EMFILE/ECONNABORTED carry.
	type temporary interface{ Temporary() bool }
	if te, ok := err.(temporary); ok && te.Temporary() {
		return true
	}
	return false
}

// serveStream pumps one line-delimited JSON stream through the engine.
// Requests are submitted as soon as they parse, so consecutive lines from
// one stream can share a batch; responses are written as they complete,
// serialized by a write mutex, possibly out of submission order. Blank
// lines are ignored. Returns when the reader is exhausted and every
// in-flight response has been written; a line longer than
// serve.MaxRequestBytes kills the stream (the scanner cannot resynchronize
// past it).
func serveStream(b backend, r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), serve.MaxRequestBytes+1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	writeLine := func(b []byte) {
		mu.Lock()
		defer mu.Unlock()
		w.Write(append(b, '\n'))
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		req, err := serve.DecodeRequest(line, b.InSize())
		if err != nil {
			resp := serve.Response{Err: err}
			var re *serve.RequestError
			if errors.As(err, &re) {
				resp.ID = re.ID
			}
			writeLine(serve.EncodeResponse(resp))
			continue
		}
		ch, err := b.Submit(req)
		if err != nil {
			writeLine(serve.EncodeResponse(serve.Response{ID: req.ID, Err: err}))
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			writeLine(serve.EncodeResponse(<-ch))
		}()
	}
	wg.Wait()
	return sc.Err()
}
