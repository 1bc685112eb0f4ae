package rsmi_test

// Edge-case coverage for the rsmi.Engine surface of every engine — Index,
// NewConcurrent, Sharded (both partitionings), the R*/Grid/KDB adapters,
// and a planner MultiEngine over Sharded plus the baselines: k = 0 and
// k < 0, k > N, empty indexes, zero-area windows and absent deletes — each
// verified against the brute-force oracle. These are exactly the
// degenerate requests a network serving layer (internal/server) forwards
// verbatim from untrusted clients, so they must be total and correct on
// every engine. The exact variants are checked on the engines that offer
// one: Index and Sharded through their concrete types, and the baselines,
// which answer exactly through the Engine surface itself.

import (
	"context"
	"testing"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/index"
	"rsmi/internal/plan"
)

// edgeEngine is one engine under test plus its exact window and kNN
// forms, nil when the engine answers only approximately.
type edgeEngine struct {
	rsmi.Engine
	exactWindow func(q rsmi.Rect) []rsmi.Point
	exactKNN    func(q rsmi.Point, k int) []rsmi.Point
}

// engines builds every engine over the same points.
func engines(t *testing.T, pts []rsmi.Point) map[string]edgeEngine {
	t.Helper()
	opts := rsmi.Options{
		BlockCapacity:      50,
		PartitionThreshold: 500,
		Epochs:             10,
		LearningRate:       0.1,
		Seed:               1,
	}
	sharded := func(p rsmi.Partitioning) edgeEngine {
		s := rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: 4, Partitioning: p, Index: opts})
		return edgeEngine{s,
			func(q rsmi.Rect) []rsmi.Point { return must(s.ExactWindowContext(bg, q)) },
			func(q rsmi.Point, k int) []rsmi.Point { return must(s.ExactKNNContext(bg, q, k)) }}
	}
	exact := func(e rsmi.Engine) edgeEngine {
		return edgeEngine{e,
			func(q rsmi.Rect) []rsmi.Point { return must(e.WindowQueryContext(bg, q)) },
			func(q rsmi.Point, k int) []rsmi.Point { return must(e.KNNContext(bg, q, k)) }}
	}
	idx := rsmi.New(pts, opts)
	out := map[string]edgeEngine{
		"Index":        {idx, idx.ExactWindow, idx.ExactKNN},
		"Concurrent":   {Engine: rsmi.NewConcurrent(pts, opts)},
		"ShardedSpace": sharded(rsmi.SpacePartitioned),
		"ShardedHash":  sharded(rsmi.HashPartitioned),
	}
	backends := []rsmi.Engine{rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: 4, Index: opts})}
	for _, name := range []string{"rstar", "grid", "kdb"} {
		eng, err := rsmi.NewBaselineEngine(name, pts)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = exact(eng)
		// The planner gets its own copies: the suite writes to each engine.
		eng, _ = rsmi.NewBaselineEngine(name, pts)
		backends = append(backends, eng)
	}
	me, err := plan.NewMultiEngine(plan.NewStats(pts), backends...)
	if err != nil {
		t.Fatal(err)
	}
	// An empty point set has nothing to calibrate on; the planner then
	// routes everything to its primary.
	if len(pts) > 0 {
		if err := me.Calibrate(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	out["Planner"] = edgeEngine{Engine: me}
	return out
}

func TestKNNEdgeCases(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 1500, 81)
	lin := index.NewLinear(pts)
	q := rsmi.Pt(0.4, 0.3)
	for name, e := range engines(t, pts) {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// k <= 0 yields empty, never panics.
			for _, k := range []int{0, -1, -1000} {
				if got := must(e.KNNContext(bg, q, k)); len(got) != 0 {
					t.Fatalf("KNN(k=%d) returned %d points", k, len(got))
				}
				if got := must(e.BatchKNNContext(bg, []rsmi.KNNQuery{{Q: q, K: k}})); len(got) != 1 || len(got[0]) != 0 {
					t.Fatalf("BatchKNN(k=%d) returned %v", k, got)
				}
				if e.exactKNN == nil {
					continue
				}
				if got := e.exactKNN(q, k); len(got) != 0 {
					t.Fatalf("ExactKNN(k=%d) returned %d points", k, len(got))
				}
			}
			// k > N: approximate KNN returns at most N real points, sorted;
			// ExactKNN returns every point, distance-matched to the oracle.
			approx := must(e.KNNContext(bg, q, len(pts)+100))
			if len(approx) > len(pts) {
				t.Fatalf("KNN(k>N) returned %d points for %d indexed", len(approx), len(pts))
			}
			for i, p := range approx {
				if !lin.PointQuery(p) {
					t.Fatalf("KNN(k>N) returned non-indexed point %v", p)
				}
				if i > 0 && q.Dist2(approx[i-1]) > q.Dist2(p) {
					t.Fatalf("KNN(k>N) results unsorted at %d", i)
				}
			}
			if e.exactKNN == nil {
				return
			}
			truth := lin.KNN(q, len(pts)+100)
			exact := e.exactKNN(q, len(pts)+100)
			if len(exact) != len(pts) {
				t.Fatalf("ExactKNN(k>N) returned %d points, want %d", len(exact), len(pts))
			}
			for i := range exact {
				if q.Dist2(exact[i]) != q.Dist2(truth[i]) {
					t.Fatalf("ExactKNN(k>N) distance %d: got %v want %v",
						i, q.Dist2(exact[i]), q.Dist2(truth[i]))
				}
			}
			// k == N is exact for ExactKNN too.
			if got := e.exactKNN(q, len(pts)); len(got) != len(pts) {
				t.Fatalf("ExactKNN(k=N) returned %d points", len(got))
			}
		})
	}
}

func TestZeroAreaWindow(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 1500, 83)
	lin := index.NewLinear(pts)
	for name, e := range engines(t, pts) {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// A zero-area window on an indexed point: the oracle returns
			// exactly that point; ExactWindow must match it, WindowQuery
			// may only ever return it (no false positives).
			target := pts[123]
			degen := rsmi.NewRect(target, target)
			truth := lin.WindowQuery(degen)
			if len(truth) != 1 || truth[0] != target {
				t.Fatalf("oracle on degenerate window: %v", truth)
			}
			for _, p := range must(e.WindowQueryContext(bg, degen)) {
				if p != target {
					t.Fatalf("WindowQuery(zero-area) returned foreign point %v", p)
				}
			}
			// A zero-area window on empty space returns nothing.
			empty := rsmi.NewRect(rsmi.Pt(-0.5, -0.5), rsmi.Pt(-0.5, -0.5))
			if got := must(e.WindowQueryContext(bg, empty)); len(got) != 0 {
				t.Fatalf("WindowQuery on empty location returned %d points", len(got))
			}
			if got := must(e.BatchWindowQueryContext(bg, []rsmi.Rect{empty})); len(got) != 1 || len(got[0]) != 0 {
				t.Fatalf("BatchWindowQuery on empty location returned %v", got)
			}
			// Zero-width (line) window: no false positives for the
			// approximate answer, oracle equivalence for the exact one.
			line := rsmi.NewRect(rsmi.Pt(target.X, 0), rsmi.Pt(target.X, 1))
			for _, p := range must(e.WindowQueryContext(bg, line)) {
				if !line.Contains(p) {
					t.Fatalf("WindowQuery(line) false positive %v", p)
				}
			}
			if e.exactWindow == nil {
				return
			}
			if exact := e.exactWindow(degen); len(exact) != 1 || exact[0] != target {
				t.Fatalf("ExactWindow(zero-area) = %v, want [%v]", exact, target)
			}
			if got := e.exactWindow(empty); len(got) != 0 {
				t.Fatalf("ExactWindow on empty location returned %d points", len(got))
			}
			truth = lin.WindowQuery(line)
			exact := e.exactWindow(line)
			if index.Recall(exact, truth) != 1 || len(exact) != len(truth) {
				t.Fatalf("ExactWindow(line) returned %d points, oracle %d", len(exact), len(truth))
			}
		})
	}
}

// TestAbsentDelete checks deleting a point that is not indexed reports
// false and leaves every indexed point in place.
func TestAbsentDelete(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 1500, 85)
	for name, e := range engines(t, pts) {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, q := range []rsmi.Point{rsmi.Pt(-0.5, -0.5), rsmi.Pt(pts[7].X, pts[8].Y)} {
				if must(e.DeleteContext(bg, q)) {
					t.Fatalf("Delete(%v) of an absent point succeeded", q)
				}
			}
			if e.Len() != len(pts) {
				t.Fatalf("Len = %d after absent deletes, want %d", e.Len(), len(pts))
			}
			for _, p := range pts[:50] {
				if !must(e.PointQueryContext(bg, p)) {
					t.Fatalf("indexed point %v lost after absent deletes", p)
				}
			}
		})
	}
}

func TestEmptyIndexEdgeCases(t *testing.T) {
	for name, e := range engines(t, nil) {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if e.Len() != 0 {
				t.Fatalf("Len = %d", e.Len())
			}
			q := rsmi.Pt(0.5, 0.5)
			if must(e.PointQueryContext(bg, q)) {
				t.Fatal("PointQuery on empty index found a point")
			}
			whole := rsmi.NewRect(rsmi.Pt(0, 0), rsmi.Pt(1, 1))
			if got := must(e.WindowQueryContext(bg, whole)); len(got) != 0 {
				t.Fatalf("WindowQuery on empty index returned %d", len(got))
			}
			for _, k := range []int{0, 1, 10} {
				if got := must(e.KNNContext(bg, q, k)); len(got) != 0 {
					t.Fatalf("KNN(k=%d) on empty index returned %d", k, len(got))
				}
				if e.exactKNN == nil {
					continue
				}
				if got := e.exactKNN(q, k); len(got) != 0 {
					t.Fatalf("ExactKNN(k=%d) on empty index returned %d", k, len(got))
				}
			}
			if e.exactWindow != nil {
				if got := e.exactWindow(whole); len(got) != 0 {
					t.Fatalf("ExactWindow on empty index returned %d", len(got))
				}
			}
			if must(e.DeleteContext(bg, q)) {
				t.Fatal("Delete on empty index succeeded")
			}
			// The empty index accepts inserts and then answers queries.
			if err := e.InsertContext(bg, q); err != nil {
				t.Fatal(err)
			}
			if !must(e.PointQueryContext(bg, q)) || e.Len() != 1 {
				t.Fatal("insert into empty index lost")
			}
			if got := must(e.KNNContext(bg, q, 5)); len(got) != 1 || got[0] != q {
				t.Fatalf("KNN after first insert: %v", got)
			}
			if e.exactKNN == nil {
				return
			}
			if got := e.exactKNN(q, 5); len(got) != 1 || got[0] != q {
				t.Fatalf("ExactKNN after first insert: %v", got)
			}
		})
	}
}
