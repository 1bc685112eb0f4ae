package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/obs"
)

// mergeAllShards is the unpruned reference for the nearest-shard-first
// kNN: every non-empty shard answers, and the merged answers are cut to
// the k closest.
func mergeAllShards(s *Sharded, q geom.Point, k int) []geom.Point {
	var all []geom.Point
	for _, sh := range s.shards {
		sh.mu.RLock()
		all = append(all, sh.idx.KNN(q, k)...)
		sh.mu.RUnlock()
	}
	index.SortByDistance(all, q)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// sameDistances fails unless got and want hold the same multiset of
// distances to q, which is what "equal up to distance ties" means.
func sameDistances(t *testing.T, what string, q geom.Point, got, want []geom.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d", what, len(got), len(want))
	}
	for i := range got {
		if dg, dw := q.Dist2(got[i]), q.Dist2(want[i]); dg != dw {
			t.Fatalf("%s: %d-th distance² %v, reference %v", what, i, dg, dw)
		}
	}
}

// spreadInserts returns n points spread over [-0.5, 1.5]², around and
// beyond the data. Each lands in the region needing the least
// enlargement, so space-partitioned regions grow into each other.
func spreadInserts(n int, seed int64) []geom.Point {
	pts := dataset.Generate(dataset.Uniform, n, seed)
	for i, p := range pts {
		pts[i] = geom.Pt(2*p.X-0.5, 2*p.Y-0.5)
	}
	return pts
}

// regionsOverlap reports whether any two shard regions intersect.
func regionsOverlap(s *Sharded) bool {
	for i, a := range s.shards {
		for _, b := range s.shards[i+1:] {
			if a.loadRegion().Intersects(b.loadRegion()) {
				return true
			}
		}
	}
	return false
}

// TestKNNMatchesAllShardMerge pins the pruning of the nearest-shard-first
// search: KNNContext and BatchKNNContext return the distance multiset of
// the merge of every shard's own answer, for every shard count, worker
// count, partitioning and GOMAXPROCS, also after inserts have made the
// space-partitioned regions overlap.
func TestKNNMatchesAllShardMerge(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 3000, 41)
	rng := rand.New(rand.NewSource(43))
	var qs []KNNQuery
	for i := 0; i < 40; i++ {
		q := pts[rng.Intn(len(pts))]
		if i%2 == 1 {
			// Off-data and out-of-space query points too.
			q = geom.Pt(rng.Float64()*1.4-0.2, rng.Float64()*1.4-0.2)
		}
		qs = append(qs, KNNQuery{Q: q, K: []int{1, 10, 60}[i%3]})
	}
	qs = append(qs, KNNQuery{Q: pts[0], K: 0})
	inserts := spreadInserts(300, 47)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, parts := range []Partitioning{Space, Hash} {
		for _, shards := range []int{1, 2, 4} {
			base := quickOpts(parts, shards)
			base.Workers = 0
			s := New(pts, base)
			for _, inserted := range []bool{false, true} {
				if inserted {
					for _, p := range inserts {
						s.InsertContext(bg, p)
					}
					if parts == Space && shards > 1 && !regionsOverlap(s) {
						t.Fatalf("%s S=%d: inserts left the shard regions disjoint", parts, shards)
					}
				}
				for _, workers := range []int{1, shards} {
					s.opts.Workers = workers
					for _, procs := range []int{1, 4} {
						runtime.GOMAXPROCS(procs)
						name := fmt.Sprintf("%s/S=%d/inserted=%v/workers=%d/procs=%d",
							parts, shards, inserted, workers, procs)
						batch, err := s.BatchKNNContext(context.Background(), qs)
						if err != nil {
							t.Fatalf("%s: BatchKNNContext: %v", name, err)
						}
						for i, q := range qs {
							got, err := s.KNNContext(context.Background(), q.Q, q.K)
							if err != nil {
								t.Fatalf("%s: KNNContext: %v", name, err)
							}
							if q.K <= 0 {
								if got != nil || batch[i] != nil {
									t.Fatalf("%s: k=0 answered %v / %v", name, got, batch[i])
								}
								continue
							}
							want := mergeAllShards(s, q.Q, q.K)
							sameDistances(t, name+" KNN", q.Q, got, want)
							sameDistances(t, name+" BatchKNN", q.Q, batch[i], want)
						}
					}
				}
			}
		}
	}
}

// TestExactKNNMatchesLinear checks that pruning keeps ExactKNNContext
// exact against the brute-force oracle, on overlapping regions too.
func TestExactKNNMatchesLinear(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 2000, 51)
	for _, parts := range []Partitioning{Space, Hash} {
		s := New(pts, quickOpts(parts, 4))
		lin := index.NewLinear(pts)
		for _, p := range spreadInserts(200, 53) {
			s.InsertContext(bg, p)
			lin.Insert(p)
		}
		rng := rand.New(rand.NewSource(55))
		for i := 0; i < 60; i++ {
			q := geom.Pt(rng.Float64(), rng.Float64())
			got, err := s.ExactKNNContext(context.Background(), q, 15)
			if err != nil {
				t.Fatal(err)
			}
			sameDistances(t, parts.String()+" ExactKNN", q, got, lin.KNN(q, 15))
		}
	}
}

// TestKNNDeepInsideOneShardVisitsOne guards the visit order: a kNN query
// whose neighbours lie far from every other shard's region must search
// only its own shard, which the trace's shard count (the EXPLAIN shards
// column) reports — whatever the number of fan-out workers.
func TestKNNDeepInsideOneShardVisitsOne(t *testing.T) {
	const k = 10
	pts := dataset.Generate(dataset.Uniform, 4000, 61)
	for _, shards := range []int{2, 4} {
		for _, workers := range []int{0, 1} {
			opts := quickOpts(Space, shards)
			opts.Workers = workers
			s := New(pts, opts)
			q, margin := deepestQuery(s, pts, k)
			if margin < 4 {
				t.Fatalf("S=%d: no query point lies deep inside one shard (margin %.2f)", shards, margin)
			}
			tr := obs.StartTrace("knn", "test")
			got, err := s.KNNContext(obs.With(context.Background(), tr), q, k)
			shardsSeen := tr.Shards()
			tr.Release()
			if err != nil || len(got) != k {
				t.Fatalf("S=%d workers=%d: KNNContext = %d points, %v", shards, workers, len(got), err)
			}
			if shardsSeen != 1 {
				t.Fatalf("S=%d workers=%d: query deep inside one shard searched %d shards, want 1",
					shards, workers, shardsSeen)
			}
		}
	}
}

// deepestQuery returns the data point whose nearest other-shard region is
// farthest away relative to its true k-th neighbour distance, with that
// ratio.
func deepestQuery(s *Sharded, pts []geom.Point, k int) (geom.Point, float64) {
	lin := index.NewLinear(pts)
	var best geom.Point
	bestRatio := -1.0
	for _, p := range pts[:400] {
		other := math.Inf(1)
		inside := 0
		for _, sh := range s.shards {
			r := sh.loadRegion()
			if r.Contains(p) {
				inside++
				continue
			}
			other = math.Min(other, r.MinDist2(p))
		}
		if inside != 1 {
			continue
		}
		nn := lin.KNN(p, k)
		kth := p.Dist2(nn[len(nn)-1])
		if ratio := math.Sqrt(other / kth); ratio > bestRatio {
			best, bestRatio = p, ratio
		}
	}
	return best, bestRatio
}
