package main

import (
	"context"
	"math"
	"runtime"
	"time"

	"rsmi"
	"rsmi/internal/core"
	"rsmi/internal/geom"
	"rsmi/internal/mlp"
	"rsmi/internal/plan"
	"rsmi/internal/rank"
	"rsmi/internal/server"
	"rsmi/internal/sqlfe"
)

// The layer ledger: per-layer numbers from timing the benchmark's own
// calls into each layer's public functions, on the workload's data.

// ledgerWrites is how many pool points the ledger inserts and deletes
// per write measurement; they are kept out of the callers' pool.
const ledgerWrites = 2000

// explainSamples is how many EXPLAIN requests the ledger issues one at a
// time per read kind.
const explainSamples = 200

// timed runs f n times and returns the mean ns per call.
func timed(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// mallocs returns the heap allocations f makes, per call over n calls.
func mallocs(n int, f func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// measureMLP trains a leaf-shaped network (2 inputs, HiddenFor(2,100))
// on one leaf's worth of points, mapping each to its curve rank.
func measureMLP(vals map[string]float64, pts []geom.Point, seed int64) {
	if len(pts) > 10000 {
		pts = pts[:10000]
	}
	ordered := rank.Order(pts, 0)
	xs := make([]float64, 0, 2*len(ordered))
	ys := make([]float64, 0, len(ordered))
	for i, p := range ordered {
		xs = append(xs, p.X, p.Y)
		ys = append(ys, float64(i)/float64(len(ordered)-1))
	}
	cfg := mlp.Config{Inputs: 2, Hidden: mlp.HiddenFor(2, 100), LearningRate: trainLR, Epochs: trainEpochs, Seed: seed}
	net := mlp.New(cfg)
	start := time.Now()
	net.Train(cfg, xs, ys)
	vals["mlp.train.s"] = time.Since(start).Seconds()
	n := len(ordered)
	vals["mlp.predict.ns"] = timed(20*n, func(i int) {
		j := i % n
		predictSink = net.Predict(xs[2*j : 2*j+2])
	})
}

// predictSink keeps the timed Predict calls from being optimised away.
var predictSink float64

// readLayer is the read surface the core and shard ledgers time.
type readLayer interface {
	PointQueryContext(ctx context.Context, q geom.Point) (bool, error)
	WindowQueryContext(ctx context.Context, q geom.Rect) ([]geom.Point, error)
	KNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error)
	InsertContext(ctx context.Context, p geom.Point) error
	DeleteContext(ctx context.Context, p geom.Point) (bool, error)
	Accesses() int64
}

// measureReads times point, window and kNN queries and writes on one
// layer, recording under prefix ("core" or "shard"). Answers are checked
// after each timed loop; wrong ones count in t. f judges the insert-pool
// points the load left in the layer (nil: none).
func measureReads(ctx context.Context, vals map[string]float64, prefix string, l readLayer,
	in *inputs, orc *oracle, writes []geom.Point, f *inFlight, t *tally) {
	n := max(len(in.pointQs), len(in.windows), len(in.knnQs), len(writes))
	found := make([]bool, n)
	errs := make([]error, n)
	acc := l.Accesses()
	vals[prefix+".point.ns"] = timed(len(in.pointQs), func(i int) {
		found[i], errs[i] = l.PointQueryContext(ctx, in.pointQs[i])
	})
	vals[prefix+".point.blocks"] = float64(l.Accesses()-acc) / float64(len(in.pointQs))
	for i, ok := range found[:len(in.pointQs)] {
		t.attempted++
		if errs[i] != nil || !ok {
			t.fail("%s ledger: point query missed a stored point (%v)", prefix, errs[i])
		}
	}

	res := make([][]geom.Point, max(len(in.windows), len(in.knnQs)))
	acc = l.Accesses()
	vals[prefix+".window.ns"] = timed(len(in.windows), func(i int) {
		res[i], errs[i] = l.WindowQueryContext(ctx, in.windows[i])
	})
	blocks := float64(l.Accesses() - acc)
	var rows, hit, want int64
	for i, q := range in.windows {
		t.attempted++
		v := orc.checkWindow(q, res[i], orc.windows[i], f)
		if errs[i] != nil || !v.ok {
			t.fail("%s ledger: window %s (%v)", prefix, v.why, errs[i])
		}
		rows += int64(len(res[i]))
		hit += int64(v.hits)
		want += int64(v.want)
	}
	vals[prefix+".window.blocks"] = blocks / float64(len(in.windows))
	vals[prefix+".window.rows"] = float64(rows) / float64(len(in.windows))
	vals[prefix+".window.blocks_per_row"] = blocks / math.Max(float64(rows), 1)
	vals[prefix+".window.recall"] = float64(hit) / math.Max(float64(want), 1)
	vals[prefix+".window.allocs"] = mallocs(len(in.windows), func(i int) {
		_, _ = l.WindowQueryContext(ctx, in.windows[i]) // answers checked above
	})

	acc = l.Accesses()
	vals[prefix+".knn.ns"] = timed(len(in.knnQs), func(i int) {
		res[i], errs[i] = l.KNNContext(ctx, in.knnQs[i], knnK)
	})
	vals[prefix+".knn.blocks"] = float64(l.Accesses()-acc) / float64(len(in.knnQs))
	hit, want = 0, 0
	for i, q := range in.knnQs {
		t.attempted++
		v := orc.checkKNN(q, knnK, res[i], orc.knn[i], f)
		if errs[i] != nil || !v.ok {
			t.fail("%s ledger: kNN %s (%v)", prefix, v.why, errs[i])
		}
		hit += int64(v.hits)
		want += int64(v.want)
	}
	vals[prefix+".knn.recall"] = float64(hit) / math.Max(float64(want), 1)

	vals[prefix+".insert.ns"] = timed(len(writes), func(i int) {
		errs[i] = l.InsertContext(ctx, writes[i])
	})
	for i := range writes {
		t.attempted++
		if errs[i] != nil {
			t.fail("%s ledger: insert: %v", prefix, errs[i])
		}
	}
	vals[prefix+".delete.ns"] = timed(len(writes), func(i int) {
		found[i], errs[i] = l.DeleteContext(ctx, writes[i])
	})
	for i := range writes {
		t.attempted++
		if errs[i] != nil || !found[i] {
			t.fail("%s ledger: delete of inserted point found nothing (%v)", prefix, errs[i])
		}
	}
}

// measureCore builds a single core.New over the workload's points, the
// serial reference for the sharded build, and times its operations.
func measureCore(ctx context.Context, vals map[string]float64, in *inputs, orc *oracle, seed int64, writes []geom.Point, t *tally) {
	start := time.Now()
	c := core.New(in.pts, indexOptions(seed))
	vals["core.build.s"] = time.Since(start).Seconds()
	lo, hi := c.ErrorBounds()
	vals["core.err_width"] = float64(lo + hi)
	vals["core.depth"] = c.AvgDepth()
	measureReads(ctx, vals, "core", c, in, orc, writes, nil, t)
}

// measureShard times the workload's sharded engine directly, plus the
// batch call shape the coalescer uses. Of the counts measureReads makes,
// the result line keeps those perLayer names for the shard.
func measureShard(ctx context.Context, vals map[string]float64, eng rsmi.Engine, in *inputs, orc *oracle,
	writes []geom.Point, f *inFlight, t *tally) {
	measureReads(ctx, vals, "shard", eng, in, orc, writes, f, t)
	const batch = 32
	calls := len(in.windows) / batch
	vals["shard.batch_window.ns"] = timed(calls, func(i int) {
		if _, err := eng.BatchWindowQueryContext(ctx, in.windows[i*batch:(i+1)*batch]); err != nil {
			t.fail("shard ledger: batch window: %v", err)
		}
	}) / batch
}

// measureReplicated times inserts through the replicator's write-gated
// engine: the gate, the Sharded insert and the oplog tap. The tap is a
// write hook on the Sharded index itself, so shard.insert.ns on
// stream-rw already includes it; the two differ by the gate alone.
func measureReplicated(ctx context.Context, vals map[string]float64, eng rsmi.Engine, writes []geom.Point, t *tally) {
	vals["server.replicated_insert.ns"] = timed(len(writes), func(i int) {
		t.attempted++
		if err := eng.InsertContext(ctx, writes[i]); err != nil {
			t.fail("replicated insert: %v", err)
		}
	})
	for _, p := range writes {
		t.attempted++
		if ok, err := eng.DeleteContext(ctx, p); err != nil || !ok {
			t.fail("replicated delete of inserted point found nothing (%v)", err)
		}
	}
}

// measureExplain issues EXPLAIN-flagged reads one at a time and averages
// the server's stage breakdown. The caller's latency minus the stages is
// the transport's share: client, codec on the client side, and the wire.
func measureExplain(ctx context.Context, vals map[string]float64, sp spec, d *deployment, in *inputs, t *tally) {
	var cl *server.Client
	transportKey := "transport.http_json.us"
	if sp.serving == stream {
		cl = server.NewClient(d.srv.streamAddr, server.WithTransport(server.TransportTCP),
			server.WithStreamConns(1), server.WithTimeout(clientTimeout))
		transportKey = "transport.stream.us"
	} else {
		cl = server.NewClient(d.srv.httpAddr, server.WithTimeout(clientTimeout))
	}
	defer cl.Close()
	kinds := []int{opPoint, opWindow, opKNN}
	if sp.mix[opSQL] > 0 {
		kinds = append(kinds, opSQL)
	}
	stages := map[string]float64{}
	var transport float64
	n := 0
	for i := 0; i < explainSamples*len(kinds); i++ {
		var tj *server.TraceJSON
		var err error
		j := i / len(kinds)
		start := time.Now()
		switch kinds[i%len(kinds)] {
		case opPoint:
			_, err = cl.PointQuery(ctx, in.pointQs[j%len(in.pointQs)], server.WithExplain(&tj))
		case opWindow:
			_, err = cl.WindowQuery(ctx, in.windows[j%len(in.windows)], server.WithExplain(&tj))
		case opKNN:
			_, err = cl.KNN(ctx, in.knnQs[j%len(in.knnQs)], knnK, server.WithExplain(&tj))
		case opSQL:
			_, err = cl.SQL(ctx, in.sqls[(j*7)%len(in.sqls)].text, server.WithExplain(&tj))
		}
		lat := float64(time.Since(start).Nanoseconds()) / 1e3
		t.attempted++
		if err != nil || tj == nil {
			t.fail("explain request: %v", err)
			continue
		}
		var sum float64
		for _, st := range tj.Stages {
			stages[st.Stage] += st.Us
			sum += st.Us
		}
		transport += lat - sum
		n++
	}
	if n == 0 {
		return
	}
	for _, st := range []string{"admission", "decode", "plan", "coalesce", "execute", "encode"} {
		vals["server."+st+".us"] = stages[st] / float64(n)
	}
	vals[transportKey] = transport / float64(n)
}

// measureServerStats reads the coalescer's mean batch and the shed share
// from /v1/stats.
func measureServerStats(vals map[string]float64, d *deployment, t *tally) {
	cl := server.NewClient(d.srv.httpAddr, server.WithTimeout(clientTimeout))
	defer cl.Close()
	st, err := cl.Stats()
	t.attempted++
	if err != nil {
		t.fail("stats: %v", err)
		return
	}
	vals["server.coalesce.mean_batch"] = st.Coalesce.MeanSize
	var reqs int64
	for _, op := range st.Ops {
		reqs += op.Count
	}
	vals["server.shed_frac"] = float64(st.Shed) / math.Max(float64(reqs+st.Shed), 1)
}

// backendKeys maps planner backend names to metric names.
var backendKeys = map[string]string{"Sharded": "rsmi", "RR*": "rstar", "Grid": "grid", "KDB": "kdb"}

// routing reports the planner's routing shares and mispredict share
// between two counter snapshots.
func routing(vals map[string]float64, before, after plan.Counters) {
	planned := float64(after.Planned - before.Planned)
	for name, key := range backendKeys {
		vals["plan.routed."+key] = float64(after.Routed[name]-before.Routed[name]) / math.Max(planned, 1)
	}
	vals["plan.mispredict_frac"] = float64(after.Mispredicts-before.Mispredicts) /
		math.Max(float64(after.Observed-before.Observed), 1)
}

// measurePlanner times planning, SQL parsing and the baselines' own
// window queries.
func measurePlanner(ctx context.Context, vals map[string]float64, d *deployment, in *inputs, t *tally) {
	vals["plan.calibrate.s"] = d.build["calibrate"]
	vals["rstar.build.s"] = d.build["rstar"]
	vals["kdb.build.s"] = d.build["kdb"]
	vals["gridfile.build.s"] = d.build["grid"]
	vals["plan.choose.ns"] = timed(len(in.windows), func(i int) {
		d.multi.PlanQuery(plan.Query{Kind: plan.KindWindow, Window: in.windows[i]})
	})
	vals["sqlfe.parse.ns"] = timed(len(in.sqls), func(i int) {
		if _, err := sqlfe.Parse(in.sqls[i].text); err != nil {
			t.fail("sql parse: %v", err)
		}
	})
	for name, key := range map[string]string{"RR*": "rstar", "KDB": "kdb", "Grid": "gridfile"} {
		eng := d.baselines[name]
		acc := eng.Accesses()
		vals[key+".window.ns"] = timed(len(in.windows), func(i int) {
			if _, err := eng.WindowQueryContext(ctx, in.windows[i]); err != nil {
				t.fail("%s window: %v", name, err)
			}
		})
		if key == "rstar" {
			vals["rstar.window.blocks"] = float64(eng.Accesses()-acc) / float64(len(in.windows))
		}
	}
}

// shardSkew returns max over mean data blocks per shard, from the
// Sharded engine's own per-shard statistics. The engine exposes no
// per-shard live point count; blocks follow each shard's size.
func shardSkew(s *rsmi.Sharded) float64 {
	st := s.ShardStats()
	total, most := 0, 0
	for _, x := range st {
		total += x.Blocks
		most = max(most, x.Blocks)
	}
	if total == 0 {
		return 0
	}
	return float64(most) / (float64(total) / float64(len(st)))
}
