package rsmi_test

// Cross-engine tests of the v2 rsmi.Engine API: every backend — learned
// engines, baseline adapters and the planner alike — must honour
// contexts, answer alike through its single, append and batch forms, and
// (for the baselines) answer exactly.

import (
	"context"
	"testing"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/index"
	"rsmi/internal/plan"
	"rsmi/internal/workload"
)

// bg is the tests' context: it never cancels, so the engine methods
// never fail under it.
var bg = context.Background()

// must unwraps an engine answer taken under bg; an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// v2Engines builds every Engine implementation over the same points.
func v2Engines(t *testing.T, pts []rsmi.Point) map[string]rsmi.Engine {
	t.Helper()
	opts := rsmi.Options{
		BlockCapacity:      50,
		PartitionThreshold: 500,
		Epochs:             10,
		LearningRate:       0.1,
		Seed:               1,
	}
	grid, err := rsmi.NewBaselineEngine("grid", pts)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := plan.NewMultiEngine(plan.NewStats(pts),
		rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: 3, Index: opts}),
		rsmi.NewRStarEngine(pts, 0), rsmi.NewGridFileEngine(pts, 0), rsmi.NewKDBEngine(pts, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := planner.Calibrate(context.Background()); err != nil {
		t.Fatal(err)
	}
	return map[string]rsmi.Engine{
		"Index":      rsmi.New(pts, opts),
		"Concurrent": rsmi.NewConcurrent(pts, opts),
		"Sharded":    rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: 3, Index: opts}),
		"rstar":      rsmi.NewRStarEngine(pts, 0),
		"grid":       grid,
		"kdb":        rsmi.NewKDBEngine(pts, 0),
		"Planner":    planner,
	}
}

// TestEngineCancelledContext checks every engine fails fast on a
// cancelled context, for every method of the interface.
func TestEngineCancelledContext(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 1000, 5)
	q := rsmi.RectAround(pts[0], 0.1, 0.1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, eng := range v2Engines(t, pts) {
		if _, err := eng.PointQueryContext(ctx, pts[0]); err != context.Canceled {
			t.Errorf("%s PointQueryContext: %v", name, err)
		}
		if _, err := eng.WindowQueryContext(ctx, q); err != context.Canceled {
			t.Errorf("%s WindowQueryContext: %v", name, err)
		}
		if _, err := eng.WindowQueryAppend(ctx, nil, q); err != context.Canceled {
			t.Errorf("%s WindowQueryAppend: %v", name, err)
		}
		if _, err := eng.KNNContext(ctx, pts[0], 5); err != context.Canceled {
			t.Errorf("%s KNNContext: %v", name, err)
		}
		if _, err := eng.BatchPointQueryContext(ctx, pts[:4]); err != context.Canceled {
			t.Errorf("%s BatchPointQueryContext: %v", name, err)
		}
		if _, err := eng.BatchWindowQueryContext(ctx, []rsmi.Rect{q}); err != context.Canceled {
			t.Errorf("%s BatchWindowQueryContext: %v", name, err)
		}
		if _, err := eng.BatchKNNContext(ctx, []rsmi.KNNQuery{{Q: pts[0], K: 3}}); err != context.Canceled {
			t.Errorf("%s BatchKNNContext: %v", name, err)
		}
		if err := eng.InsertContext(ctx, rsmi.Pt(0.5, 0.5)); err != context.Canceled {
			t.Errorf("%s InsertContext: %v", name, err)
		}
		if _, err := eng.DeleteContext(ctx, pts[0]); err != context.Canceled {
			t.Errorf("%s DeleteContext: %v", name, err)
		}
		if err := eng.RebuildContext(ctx); err != context.Canceled {
			t.Errorf("%s RebuildContext: %v", name, err)
		}
		if eng.Len() != len(pts) {
			t.Errorf("%s: cancelled writes changed Len to %d", name, eng.Len())
		}
	}
}

// TestEngineContextMatchesLegacy checks that with a background context
// every engine's window answer agrees across its single, append and batch
// forms, and that the whole v2 surface round-trips writes.
func TestEngineContextMatchesLegacy(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 1000, 7)
	ctx := context.Background()
	wins := workload.Windows(pts, 5, 0.01, 1, 8)
	for name, eng := range v2Engines(t, pts) {
		for _, q := range wins {
			got, err := eng.WindowQueryContext(ctx, q)
			if err != nil {
				t.Fatalf("%s WindowQueryContext: %v", name, err)
			}
			appended, err := eng.WindowQueryAppend(ctx, nil, q)
			if err != nil || len(appended) != len(got) {
				t.Fatalf("%s WindowQueryAppend: %d points, %v; want %d", name, len(appended), err, len(got))
			}
			batch, err := eng.BatchWindowQueryContext(ctx, []rsmi.Rect{q})
			if err != nil || len(batch[0]) != len(got) {
				t.Fatalf("%s BatchWindowQueryContext: %d points, %v; want %d", name, len(batch[0]), err, len(got))
			}
		}
		knn, err := eng.KNNContext(ctx, pts[3], 7)
		if err != nil || len(knn) != 7 {
			t.Fatalf("%s KNNContext: %d points, %v", name, len(knn), err)
		}
		found, err := eng.PointQueryContext(ctx, pts[0])
		if err != nil || !found {
			t.Fatalf("%s PointQueryContext(indexed) = %v, %v", name, found, err)
		}

		// Insert / query / delete through the v2 surface.
		p := rsmi.Pt(0.31415, 0.92653)
		if err := eng.InsertContext(ctx, p); err != nil {
			t.Fatalf("%s InsertContext: %v", name, err)
		}
		if found, _ := eng.PointQueryContext(ctx, p); !found {
			t.Fatalf("%s: inserted point not found", name)
		}
		deleted, err := eng.DeleteContext(ctx, p)
		if err != nil || !deleted {
			t.Fatalf("%s DeleteContext = %v, %v", name, deleted, err)
		}
		if err := eng.RebuildContext(ctx); err != nil {
			t.Fatalf("%s RebuildContext: %v", name, err)
		}
		if eng.Len() != len(pts) {
			t.Fatalf("%s: Len = %d after rebuild, want %d", name, eng.Len(), len(pts))
		}
	}
}

// TestBaselineEnginesExact checks the baseline adapters answer window and
// kNN queries exactly (recall 1 against the brute-force oracle) — they
// adapt exact indexes and must not lose that property.
func TestBaselineEnginesExact(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 1500, 9)
	oracle := index.NewLinear(pts)
	ctx := context.Background()
	for _, name := range []string{"rstar", "grid", "kdb"} {
		eng, err := rsmi.NewBaselineEngine(name, pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range workload.Windows(pts, 8, 0.005, 1, 10) {
			got, err := eng.WindowQueryContext(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := oracle.WindowQuery(q)
			if r := index.Recall(got, want); r != 1 {
				t.Fatalf("%s window recall %.3f (got %d, want %d)", name, r, len(got), len(want))
			}
			if len(got) != len(want) {
				t.Fatalf("%s window returned %d points, oracle %d (false positives?)", name, len(got), len(want))
			}
		}
		got, err := eng.KNNContext(ctx, pts[11], 10)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.KNN(pts[11], 10)
		if r := index.KNNRecall(got, want, pts[11]); r != 1 {
			t.Fatalf("%s kNN recall %.3f", name, r)
		}
	}
	if _, err := rsmi.NewBaselineEngine("btree", pts); err == nil {
		t.Fatal("unknown baseline name accepted")
	}
}
