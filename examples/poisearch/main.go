// POI search: the paper's motivating "Search this area" scenario (Fig. 1a).
//
// A map application keeps millions of points of interest; every pan/zoom of
// the viewport issues a window query. This example indexes an OSM-like POI
// set and replays a session of viewport queries, comparing the learned RSMI
// against the strongest traditional baseline (the packed HRR R-tree) on
// latency, block accesses, and recall — the Fig. 10 comparison, in
// miniature.
package main

import (
	"context"
	"fmt"
	"time"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/hrr"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

func main() {
	const nPOI = 80000
	pois := dataset.Generate(dataset.OSMLike, nPOI, 2026)
	fmt.Printf("indexing %d OSM-like POIs…\n", nPOI)

	learned := rsmi.New(pois, rsmi.Options{
		Epochs: 40, LearningRate: 0.1, Seed: 7,
	})
	packed := hrr.New(pois, 100)
	oracle := index.NewLinear(pois)

	// A user session: 500 viewport queries following the POI density
	// (people search where things are), 0.01% of the space each — the
	// paper's default window workload.
	views := workload.Windows(pois, 500, workload.DefaultWindowSize, 1.5, 99)

	type result struct {
		name    string
		dur     time.Duration
		blocks  int64
		recall  float64
		results int
	}
	measure := func(name string, reset func(), query func(w rsmi.Rect) []rsmi.Point, acc func() int64) result {
		reset()
		start := time.Now()
		var found int
		for _, w := range views {
			found += len(query(w))
		}
		dur := time.Since(start)
		var recall float64
		for _, w := range views {
			recall += index.Recall(query(w), oracle.WindowQuery(w))
		}
		return result{name, dur, acc(), recall / float64(len(views)), found}
	}

	// The learned index is driven through the ctx-first v2 API; with a
	// Background context the error is never non-nil, so it is dropped.
	ctx := context.Background()
	learnedWindow := func(w rsmi.Rect) []rsmi.Point {
		out, _ := learned.WindowQueryContext(ctx, w)
		return out
	}
	rs := []result{
		measure("RSMI (learned)", learned.ResetAccesses, learnedWindow, learned.Accesses),
		measure("RSMIa (exact)", learned.ResetAccesses, learned.ExactWindow, learned.Accesses),
		measure("HRR (packed R-tree)", packed.ResetAccesses, packed.WindowQuery, packed.Accesses),
	}
	fmt.Printf("\n%-22s %12s %14s %10s %8s\n", "index", "session time", "block accesses", "results", "recall")
	for _, r := range rs {
		fmt.Printf("%-22s %12v %14d %10d %7.1f%%\n",
			r.name, r.dur.Round(time.Microsecond), r.blocks, r.results, 100*r.recall)
	}
	fmt.Println("\nRSMI answers viewport queries without tree traversal: the recall")
	fmt.Println("column shows the price of learned approximation; RSMIa removes it")
	fmt.Println("using the same structure's MBRs when exactness matters.")
}
