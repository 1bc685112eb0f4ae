package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/workload"
)

// This file implements the sharded-throughput experiment: queries/sec under
// concurrent clients for the single-RWMutex engine (rsmi.NewConcurrent)
// versus the S-way sharded index (rsmi.NewSharded), both driven through
// the rsmi.Engine context methods, swept over shard count × client
// goroutine count. It is not a paper artefact — the paper benchmarks
// single-threaded (§6.1) — but the scaling experiment EXPERIMENTS.md
// ("Sharded throughput") reports for the production-service direction.

// throughputKQPS runs totalOps operations drawn from op across g client
// goroutines (work-stealing via a shared counter) and returns the rate in
// thousands of operations per second.
func throughputKQPS(g, totalOps int, op func(i int)) float64 {
	var next int64 = -1
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= totalOps {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	if secs == 0 {
		return 0
	}
	return float64(totalOps) / secs / 1e3
}

// shardSweep returns the ×2 sweep 2, 4, … up to max; empty when max < 2,
// so a -shards/-goroutines cap of 1 is honoured.
func shardSweep(max int) []int {
	var out []int
	for s := 2; s <= max; s *= 2 {
		out = append(out, s)
	}
	return out
}

func init() {
	register(Experiment{
		ID:    "sharded",
		Title: "Sharded throughput: queries/sec vs shard count × client goroutines",
		Run: func(cfg Config, w io.Writer) {
			cfg = cfg.Defaults()
			pts := dataset.Generate(cfg.Dist, cfg.N, cfg.Seed)
			goroutines := shardSweep(cfg.Goroutines)
			goroutines = append([]int{1}, goroutines...)
			totalOps := 20 * cfg.Queries
			windows := workload.Windows(pts, totalOps, workload.DefaultWindowSize, 1, cfg.Seed+31)

			header := []string{"engine"}
			for _, g := range goroutines {
				header = append(header, fmt.Sprintf("g=%d", g))
			}
			qTb := newTable(fmt.Sprintf(
				"Window-query throughput (kqps), %s n=%d, GOMAXPROCS=%d",
				cfg.Dist, cfg.N, runtime.GOMAXPROCS(0)), header...)
			mTb := newTable("Mixed-workload throughput (kops/s), 90% window / 10% insert", header...)

			type engineRow struct {
				name  string
				build func() rsmi.Engine
			}
			rows := []engineRow{{
				name:  "RWMutex",
				build: func() rsmi.Engine { return rsmi.NewConcurrent(pts, cfg.rsmiOptions()) },
			}}
			// Shards use rsmi.NewSharded's auto-derived per-shard partition
			// threshold (an unset threshold scales with the shard's share of
			// the data); the RWMutex baseline keeps the configured global
			// threshold, as a single index would.
			shardOpts := cfg.rsmiOptions()
			shardOpts.PartitionThreshold = 0
			// S=1 isolates the sharding layer's own overhead against the
			// RWMutex baseline before the sweep scales S up.
			for _, s := range append([]int{1}, shardSweep(cfg.Shards)...) {
				s := s
				rows = append(rows, engineRow{
					name: fmt.Sprintf("Sharded S=%d", s),
					build: func() rsmi.Engine {
						return rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: s, Workers: 1, Index: shardOpts})
					},
				})
			}

			// Background never cancels, so the engines' errors are nil.
			ctx := context.Background()
			for _, row := range rows {
				// One pristine engine serves every read-only column; each
				// mixed column gets a freshly built engine so the inserts of
				// earlier cells cannot grow the index later cells measure.
				eng := row.build()
				var qVals, mVals []float64
				for _, g := range goroutines {
					qVals = append(qVals, throughputKQPS(g, totalOps, func(i int) {
						eng.WindowQueryContext(ctx, windows[i])
					}))
				}
				for gi, g := range goroutines {
					meng := row.build()
					ins := workload.InsertPoints(pts, (totalOps+9)/10, cfg.Seed+101+int64(gi))
					mVals = append(mVals, throughputKQPS(g, totalOps, func(i int) {
						if i%10 == 9 {
							meng.InsertContext(ctx, ins[i/10])
						} else {
							meng.WindowQueryContext(ctx, windows[i])
						}
					}))
				}
				qTb.addf(row.name, "%.1f", qVals...)
				mTb.addf(row.name, "%.1f", mVals...)
			}
			qTb.write(w)
			mTb.write(w)

			// Intra-query fan-out: single-client latency of a large window
			// against a hash-partitioned index (every query visits all
			// shards), swept over worker goroutines. This isolates the
			// scatter/gather parallelism from the per-shard locking. All
			// sweeps share one seed, so the shard models are identical and
			// only the worker count varies.
			workerSweep := append([]int{1}, shardSweep(cfg.Goroutines)...)
			latHeader := []string{"engine"}
			for _, ww := range workerSweep {
				latHeader = append(latHeader, fmt.Sprintf("workers=%d", ww))
			}
			lat := newTable(fmt.Sprintf(
				"Large-window latency (us/query), hash-partitioned S=%d, single client", cfg.Shards),
				latHeader...)
			big := workload.Windows(pts, cfg.Queries, 0.0016, 1, cfg.Seed+77)
			var lVals []float64
			for _, ww := range workerSweep {
				s := rsmi.NewSharded(pts, rsmi.ShardOptions{
					Shards: cfg.Shards, Workers: ww,
					Partitioning: rsmi.HashPartitioned, Index: shardOpts,
				})
				lVals = append(lVals, timeQueriesUS(len(big), func(i int) { s.WindowQueryContext(ctx, big[i]) }))
			}
			lat.addf(fmt.Sprintf("Sharded S=%d", cfg.Shards), "%.1f", lVals...)
			lat.write(w)

			// Availability under maintenance: the worst query stall while a
			// periodic rebuild (§5) runs concurrently. Behind one RWMutex
			// the rebuild's write lock blocks every query for the whole
			// retraining; the sharded rolling rebuild locks one shard at a
			// time, bounding the stall near a single shard's retraining.
			avTb := newTable("Query stall during concurrent rebuild (ms)",
				"engine", "rebuild took", "max query stall")
			for _, row := range rows {
				eng := row.build()
				done := make(chan struct{})
				var maxStall atomic.Int64
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						qs := time.Now()
						eng.WindowQueryContext(ctx, windows[i%len(windows)])
						if d := time.Since(qs).Nanoseconds(); d > maxStall.Load() {
							maxStall.Store(d)
						}
					}
				}()
				rs := time.Now()
				eng.RebuildContext(ctx)
				rebuildMS := float64(time.Since(rs).Microseconds()) / 1e3
				close(done)
				wg.Wait()
				avTb.addf(row.name, "%.1f", rebuildMS, float64(maxStall.Load())/1e6)
			}
			avTb.write(w)
			fmt.Fprintf(w, "\n  (RWMutex = one RSMI behind a single RWMutex, rsmi.NewConcurrent;\n   Sharded S=k = rsmi.Sharded with k space-partitioned shards, per-shard locks)\n")
		},
	})
}
