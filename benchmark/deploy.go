package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rsmi"
	"rsmi/internal/geom"
	"rsmi/internal/plan"
	"rsmi/internal/server"
)

// Operation kinds of the workload mixes.
const (
	opPoint = iota
	opWindow
	opKNN
	opSQL
	opInsert
	opDelete
	numOps
)

var opNames = [numOps]string{"point", "window", "knn", "sql", "insert", "delete"}

// serving selects how a workload reaches its engine.
type serving int

const (
	embedded serving = iota // library calls in the benchmark process
	stream                  // rsmistream TCP through the client
	httpJSON                // HTTP JSON through the client
)

// spec is one workload: its data size, callers, operation mix (weights
// out of 100, indexed by op kind) and deployment.
type spec struct {
	name    string
	points  int
	callers int
	mix     [numOps]int
	serving serving
	planner bool
}

var specs = []spec{
	{
		name: "embedded-read", points: 200000, callers: 1,
		mix:     [numOps]int{opPoint: 40, opWindow: 40, opKNN: 20},
		serving: embedded,
	},
	{
		name: "stream-rw", points: 200000, callers: 2,
		mix:     [numOps]int{opPoint: 35, opWindow: 30, opKNN: 15, opInsert: 10, opDelete: 10},
		serving: stream,
	},
	{
		name: "http-planner", points: 10000, callers: 2,
		mix:     [numOps]int{opSQL: 40, opWindow: 30, opPoint: 20, opKNN: 10},
		serving: httpJSON, planner: true,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// rsmi-serve's training defaults.
const (
	trainEpochs = 30
	trainLR     = 0.1
	numShards   = 2
)

func indexOptions(seed int64) rsmi.Options {
	return rsmi.Options{Epochs: trainEpochs, LearningRate: trainLR, Seed: seed}
}

// hooks let the benchmark's own tests slow or break one layer on
// purpose. The zero value changes nothing.
type hooks struct {
	// wrapEngine wraps the engine the workload's callers reach: the
	// Sharded index on embedded-read, the replicator's engine on
	// stream-rw, the Sharded backend on http-planner.
	wrapEngine func(rsmi.Engine) rsmi.Engine
	// wrapStream wraps the stream transport's listener.
	wrapStream func(net.Listener) net.Listener
}

// deployment is one workload's engine, ready to answer.
type deployment struct {
	sharded   *rsmi.Sharded
	repl      *server.Replicator
	multi     *plan.MultiEngine
	baselines map[string]rsmi.Engine // by display name: "RR*", "Grid", "KDB"
	// engine is what embedded callers call; served workloads go
	// through srv instead.
	engine rsmi.Engine
	srv    *served
	// build holds component set-up times in seconds: "shard", "rstar",
	// "grid", "kdb", "calibrate".
	build map[string]float64
	// tr switches span recording in the traced engine wrappers; nil
	// when the run is not traced.
	tr *atomic.Pointer[tracer]
}

// deploy builds the workload's engine from the points and, for served
// workloads, starts the server. traced installs the span-recording
// engine wrappers (switched off until a tracer is stored).
func deploy(sp spec, pts []geom.Point, seed int64, hk hooks, traced bool) (*deployment, error) {
	d := &deployment{build: map[string]float64{}}
	if traced {
		d.tr = new(atomic.Pointer[tracer])
	}
	wrap := func(e rsmi.Engine, name string) rsmi.Engine {
		if hk.wrapEngine != nil {
			e = hk.wrapEngine(e)
		}
		if traced {
			e = tracedEngine{Engine: e, name: name, tr: d.tr}
		}
		return e
	}
	start := time.Now()
	d.sharded = rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: numShards, Index: indexOptions(seed)})
	d.build["shard"] = time.Since(start).Seconds()

	switch {
	case sp.serving == embedded:
		d.engine = d.sharded
		if hk.wrapEngine != nil {
			d.engine = hk.wrapEngine(d.engine)
		}
	case sp.planner:
		d.baselines = map[string]rsmi.Engine{}
		backends := []rsmi.Engine{wrap(d.sharded, "backend.rsmi")}
		for _, b := range []struct{ kind, key, span string }{
			{"rstar", "rstar", "backend.rstar"}, {"grid", "grid", "backend.grid"}, {"kdb", "kdb", "backend.kdb"},
		} {
			t := time.Now()
			eng, err := rsmi.NewBaselineEngine(b.kind, pts)
			if err != nil {
				return nil, err
			}
			d.build[b.key] = time.Since(t).Seconds()
			d.baselines[eng.Name()] = eng
			if traced {
				eng = tracedEngine{Engine: eng, name: b.span, tr: d.tr}
			}
			backends = append(backends, eng)
		}
		me, err := plan.NewMultiEngine(plan.NewStats(pts), backends...)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if err := me.Calibrate(context.Background()); err != nil {
			return nil, err
		}
		d.build["calibrate"] = time.Since(t).Seconds()
		d.multi = me
		if d.srv, err = serve(server.Config{Engine: me}, false, nil); err != nil {
			return nil, err
		}
	default:
		d.repl = server.NewReplicator(d.sharded, 0)
		var err error
		d.srv, err = serve(server.Config{Engine: wrap(d.repl.Engine(), "engine"), Replicator: d.repl}, true, hk.wrapStream)
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// front returns the engine behind the workload's front door, for Stats
// and Len.
func (d *deployment) front() rsmi.Engine {
	switch {
	case d.multi != nil:
		return d.multi
	case d.repl != nil:
		return d.repl.Engine()
	}
	return d.engine
}

func (d *deployment) close() error {
	if d.srv != nil {
		return d.srv.close()
	}
	return nil
}

// served is a running server and the goroutines serving its listeners.
type served struct {
	srv        *server.Server
	httpAddr   string
	streamAddr string
	wg         sync.WaitGroup
}

func serve(cfg server.Config, withStream bool, wrapStream func(net.Listener) net.Listener) (*served, error) {
	s := &served{srv: server.New(cfg)}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.httpAddr = hl.Addr().String()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.srv.Serve(hl) // returns http.ErrServerClosed after close
	}()
	if withStream {
		sl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.streamAddr = sl.Addr().String()
		if wrapStream != nil {
			sl = wrapStream(sl)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = s.srv.ServeStream(sl) // returns http.ErrServerClosed after close
		}()
	}
	return s, nil
}

// close shuts the server down and waits for its serving goroutines.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.wg.Wait()
	if err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}
