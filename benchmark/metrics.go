package main

// metricDef names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares, in its order; a test keeps the two
// in step.
type metricDef struct{ name, unit string }

// endToEnd metrics come only from untraced runs. The gated tail is the
// p90, and kNN latency is not gated: on a shared two-core host both move
// with scheduling far more than any bound allows (see README.md). Every
// class's p50, p90 and p99 is in the info line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"point_p50_us", "us"},
	{"point_p90_us", "us"},
	{"window_p50_us", "us"},
	{"window_p90_us", "us"},
	{"window_recall", "frac"},
	{"knn_recall", "frac"},
	{"bytes_per_point", "bytes"},
}

// perLayer metrics come only from traced runs. A layer the workload does
// not use does no work on it and reads 0.
var perLayer = []metricDef{
	{"mlp.predict.ns", "ns"},
	{"mlp.train.s", "s"},
	{"core.build.s", "s"},
	{"core.point.ns", "ns"},
	{"core.point.blocks", "count"},
	{"core.window.ns", "ns"},
	{"core.window.blocks", "count"},
	{"core.window.rows", "count"},
	{"core.window.blocks_per_row", "ratio"},
	{"core.window.allocs", "count"},
	{"core.window.recall", "frac"},
	{"core.err_width", "blocks"},
	{"core.depth", "models"},
	{"core.knn.ns", "ns"},
	{"core.knn.blocks", "count"},
	{"core.knn.recall", "frac"},
	{"core.insert.ns", "ns"},
	{"core.delete.ns", "ns"},
	{"shard.build.s", "s"},
	{"shard.point.ns", "ns"},
	{"shard.window.ns", "ns"},
	{"shard.window.blocks", "count"},
	{"shard.window.allocs", "count"},
	{"shard.knn.ns", "ns"},
	{"shard.batch_window.ns", "ns"},
	{"shard.insert.ns", "ns"},
	{"shard.delete.ns", "ns"},
	{"shard.skew", "ratio"},
	{"server.replicated_insert.ns", "ns"},
	{"server.admission.us", "us"},
	{"server.decode.us", "us"},
	{"server.plan.us", "us"},
	{"server.coalesce.us", "us"},
	{"server.execute.us", "us"},
	{"server.encode.us", "us"},
	{"server.coalesce.mean_batch", "count"},
	{"server.shed_frac", "frac"},
	{"transport.stream.us", "us"},
	{"transport.http_json.us", "us"},
	{"plan.choose.ns", "ns"},
	{"plan.calibrate.s", "s"},
	{"plan.routed.rsmi", "frac"},
	{"plan.routed.rstar", "frac"},
	{"plan.routed.grid", "frac"},
	{"plan.routed.kdb", "frac"},
	{"plan.mispredict_frac", "frac"},
	{"sqlfe.parse.ns", "ns"},
	{"rstar.build.s", "s"},
	{"kdb.build.s", "s"},
	{"gridfile.build.s", "s"},
	{"rstar.window.ns", "ns"},
	{"rstar.window.blocks", "count"},
	{"kdb.window.ns", "ns"},
	{"gridfile.window.ns", "ns"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_pause.ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill copies values into a metrics map in the shape defs declare; a
// metric without a value reads 0.
func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
