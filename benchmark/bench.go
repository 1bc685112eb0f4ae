package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rsmi/internal/plan"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the traced run's spans and self-time table; empty
	// writes no files.
	outDir string
	// points overrides the workload's data size when positive, and
	// setups the number of timed set-ups; the benchmark's tests use both
	// to stay small.
	points int
	setups int
	hooks  hooks
	log    io.Writer
}

// report is a run's outcome: the result line plus what the run prints
// before it.
type report struct {
	res  result
	info map[string]any
	// selfTable is the traced run's self time per layer.
	selfTable string
}

// poolPerCaller bounds the inserts one writing caller can make in a run.
const poolPerCaller = 40000

// setupReps is how many times an untraced run sets its workload up;
// setup_s is their median.
const setupReps = 3

func run(cfg config) (*report, error) {
	sp, ok := findSpec(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	logf := func(format string, args ...any) {
		if cfg.log != nil {
			fmt.Fprintf(cfg.log, format+"\n", args...)
		}
	}
	n := sp.points
	if cfg.points > 0 {
		n = cfg.points
	}
	poolSize := ledgerWrites
	if sp.mix[opInsert] > 0 {
		poolSize += sp.callers * poolPerCaller
	}
	in := makeInputs(n, cfg.seed, poolSize)
	if err := checkSQLParses(in.sqls); err != nil {
		return nil, err
	}
	callerPool, ledgerPool := in.pool[:len(in.pool)-ledgerWrites], in.pool[len(in.pool)-ledgerWrites:]

	// Each set-up trains its models from its own seed, and the load
	// rotates over all of them (see numSegments).
	reps := cfg.setups
	if reps <= 0 {
		reps = setupReps
		if cfg.trace {
			reps = 1
		}
	}
	var (
		deps   []*deployment
		setups []float64
	)
	defer func() {
		for _, d := range deps {
			if err := d.close(); err != nil {
				logf("%v", err)
			}
		}
	}()
	var bytesPerPoint float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		d, err := deploy(sp, in.pts, cfg.seed+int64(i)*1000003, cfg.hooks, cfg.trace)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		deps = append(deps, d)
		front := d.front()
		bytesPerPoint += float64(front.Stats().SizeBytes) / float64(front.Len()) / float64(reps)
		logf("%s: set-up %d/%d took %.2fs", sp.name, i+1, reps, setups[i])
	}
	d := deps[0]

	orc := buildOracle(in)
	runtime.GC()
	dr := newRunner(sp, in, callerPool, orc, deps, cfg.seed)
	defer dr.close()
	ctx := context.Background()
	total := &tally{}
	dr.prime(ctx, total)
	warm := time.Duration(math.Min(math.Max(cfg.seconds*0.1, 0.3), 1) * float64(time.Second))
	w, _ := dr.run(ctx, warm, nil)
	total.addCounts(w)

	rep := &report{info: map[string]any{}}
	vals := map[string]float64{}
	phase := time.Duration(cfg.seconds * float64(time.Second))
	var measured *tally
	if !cfg.trace {
		t, wall := dr.run(ctx, phase, nil)
		measured = t
		rep.info["latency_us"] = endToEndValues(vals, t, wall, len(deps))
		vals["setup_s"] = median(setups)
		vals["bytes_per_point"] = bytesPerPoint
		logf("%s: load phase %.2fs, %d ops", sp.name, wall.Seconds(), t.attempted)
	} else {
		// The first half runs untraced, the second traced; the
		// difference in throughput is the tracing overhead.
		var ms0, ms1 runtime.MemStats
		var c0, c1 plan.Counters
		if d.multi != nil {
			c0 = d.multi.PlannerStats()
		}
		runtime.ReadMemStats(&ms0)
		u, uwall := dr.run(ctx, phase/2, nil)
		runtime.ReadMemStats(&ms1)
		if d.multi != nil {
			c1 = d.multi.PlannerStats()
			routing(vals, c0, c1)
		}
		vals["runtime.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(u.attempted, 1))
		vals["runtime.gc_pause.ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

		tr := newTracer()
		d.tr.Store(tr)
		t, twall := dr.run(ctx, phase/2, tr)
		d.tr.Store(nil)
		untracedOps := float64(u.completed()) / uwall.Seconds()
		tracedOps := float64(t.completed()) / twall.Seconds()
		vals["trace.overhead_frac"] = (untracedOps - tracedOps) / untracedOps
		total.addCounts(u)
		measured = t
		rep.selfTable = traceOutput(cfg, sp, tr, t.attempted, logf)
	}
	total.addCounts(measured)
	if sp.mix[opInsert] > 0 {
		dr.audit(ctx, total)
	}

	if cfg.trace {
		vals["shard.skew"] = shardSkew(d.sharded)
		vals["shard.build.s"] = d.build["shard"]
		logf("%s: measuring layers", sp.name)
		measureMLP(vals, in.pts, cfg.seed)
		measureCore(ctx, vals, in, orc, cfg.seed, ledgerPool, total)
		shardEng := d.engine
		if shardEng == nil {
			shardEng = d.sharded
		}
		measureShard(ctx, vals, shardEng, in, orc, ledgerPool, dr.settled(0), total)
		if d.repl != nil {
			measureReplicated(ctx, vals, d.repl.Engine(), ledgerPool, total)
		}
		if d.srv != nil {
			measureExplain(ctx, vals, sp, d, in, total)
			measureServerStats(vals, d, total)
		}
		if d.multi != nil {
			measurePlanner(ctx, vals, d, in, total)
		}
	}

	rep.res = result{
		Correct:   total.failed == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
	}
	if cfg.trace {
		rep.res.Metrics = fill(perLayer, vals)
	} else {
		rep.res.Metrics = fill(endToEnd, vals)
	}
	info := rep.info
	info["workload"] = sp.name
	info["seed"] = cfg.seed
	info["points"] = n
	info["setups_s"] = setups
	info["failed_frac"] = float64(total.failed) / float64(max(total.attempted, 1))
	var samples [numClasses]int
	for c, l := range measured.lat {
		samples[c] = len(l)
	}
	info["samples"] = map[string]int{"point": samples[clsPoint], "window": samples[clsWindow],
		"knn": samples[clsKNN], "sql": samples[clsSQL], "write": samples[clsWrite]}
	if measured.sqlWant > 0 {
		info["sql_recall"] = float64(measured.sqlHit) / float64(measured.sqlWant)
	}
	if len(total.errs) > 0 {
		info["errors"] = total.errs
	}
	return rep, nil
}

// classNames names the latency classes in metrics and the info line.
var classNames = [numClasses]string{clsPoint: "point", clsWindow: "window", clsKNN: "knn", clsSQL: "sql", clsWrite: "write"}

// endToEndValues computes the load-phase metrics of an untraced run over
// deps deployments: for each deployment, the median over its segments of
// the segment's value; then the mean over deployments. It returns every
// class's p50, p90 and p99, the gated ones and the rest, for the info
// line.
func endToEndValues(vals map[string]float64, t *tally, wall time.Duration, deps int) map[string]float64 {
	segSeconds := wall.Seconds() / numSegments
	rates := make([]float64, numSegments)
	for i, n := range t.segOps {
		rates[i] = float64(n) / segSeconds
	}
	vals["ops_per_s"] = perDeployment(rates, deps)
	lat := map[string]float64{}
	quantiles := func(name string, ns []int64, seg []uint8) {
		if len(ns) == 0 {
			return
		}
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50_us", 0.50}, {"_p90_us", 0.90}, {"_p99_us", 0.99}} {
			lat[name+q.suffix] = perDeployment(bySegment(ns, seg, q.q), deps) / 1e3
		}
	}
	var all []int64
	var segs []uint8
	for c := range t.lat {
		quantiles(classNames[c], t.lat[c], t.seg[c])
		all = append(all, t.lat[c]...)
		segs = append(segs, t.seg[c]...)
	}
	quantiles("op", all, segs)
	for _, d := range endToEnd {
		if v, ok := lat[d.name]; ok {
			vals[d.name] = v
		}
	}
	vals["window_recall"] = ratioOr1(t.winHit, t.winWant)
	vals["knn_recall"] = ratioOr1(t.knnHit, t.knnWant)
	return lat
}

// bySegment returns each segment's q-quantile of lat; a segment without
// samples reads NaN.
func bySegment(lat []int64, seg []uint8, q float64) []float64 {
	var per [numSegments][]int64
	for i, ns := range lat {
		per[seg[i]] = append(per[seg[i]], ns)
	}
	out := make([]float64, numSegments)
	for i, l := range per {
		out[i] = math.NaN()
		if len(l) > 0 {
			out[i] = percentile(l, q)
		}
	}
	return out
}

// perDeployment takes, for each of deps deployments, the median of its
// segments' values (segment i ran on deployment i mod deps), and returns
// their mean.
func perDeployment(segVals []float64, deps int) float64 {
	var sum float64
	for d := 0; d < deps; d++ {
		var xs []float64
		for i := d; i < len(segVals); i += deps {
			if !math.IsNaN(segVals[i]) {
				xs = append(xs, segVals[i])
			}
		}
		sum += median(xs)
	}
	return sum / float64(deps)
}

func ratioOr1(a, b int64) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// traceOutput writes the traced phase's spans and self-time table, and
// returns the table.
func traceOutput(cfg config, sp spec, tr *tracer, requests int64, logf func(string, ...any)) string {
	var b strings.Builder
	writeSelfTable(&b, selfTimes(tr.spans), requests)
	if cfg.outDir == "" {
		return b.String()
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		logf("trace output: %v", err)
		return b.String()
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", sp.name, cfg.seed))
	if err := writeSpans(base+".spans.jsonl", tr.spans, spanFileEvery); err != nil {
		logf("trace output: %v", err)
	}
	if err := os.WriteFile(base+".selftime.txt", []byte(b.String()), 0o644); err != nil {
		logf("trace output: %v", err)
	}
	logf("%s: spans and self-time table in %s.*", sp.name, base)
	return b.String()
}

// spanFileEvery keeps the spans file small: it holds the spans of one
// request in this many.
const spanFileEvery = 16
