package shard

// Context-aware query surface (the rsmi.Engine v2 API). Unlike the
// single-index core — whose queries run on one goroutine in microseconds
// and only check the context at entry — the sharded engine observes
// cancellation *during* execution: every fan-out (window, kNN, the batch
// variants) checks the context between shard visits, and the rolling
// rebuild checks it between shard retrains. A query against a 64-shard
// index whose client disconnects after the second shard therefore stops
// paying for the remaining 62.

import (
	"context"

	"rsmi/internal/geom"
	"rsmi/internal/obs"
)

// PointQueryContext reports whether a point with q's exact coordinates is
// indexed, observing ctx between candidate-shard probes. Exact: the
// candidate shards always include the owning shard. A trace in ctx counts
// the shards actually probed (the walk stops at the first hit).
//
//rsmi:noalloc
func (s *Sharded) PointQueryContext(ctx context.Context, q geom.Point) (bool, error) {
	tr := obs.FromContext(ctx)
	probed := 0
	for sh := range s.pointCandidates(q) {
		if err := ctx.Err(); err != nil {
			tr.AddShards(probed)
			return false, err
		}
		probed++
		sh.mu.RLock()
		found := sh.idx.PointQuery(q)
		sh.mu.RUnlock()
		if found {
			tr.AddShards(probed)
			return true, nil
		}
	}
	tr.AddShards(probed)
	return false, ctx.Err()
}

// WindowQueryContext scatters the window to the shards whose region
// overlaps it, runs the per-shard queries in parallel, and concatenates
// the answers in shard order (deterministic for a given shard layout).
// Like the single-index RSMI, the answer has no false positives and may
// miss points (§4.2 semantics); ExactWindowContext is the exact variant.
// ctx is observed between shard visits of the fan-out: on cancellation it
// returns ctx's error and no points — never a partial answer.
func (s *Sharded) WindowQueryContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	return s.WindowQueryAppend(ctx, nil, q)
}

// WindowQueryAppend is WindowQueryContext appending the answer to dst and
// returning the extended slice, for callers that reuse result buffers
// across queries. On error dst is returned unextended.
func (s *Sharded) WindowQueryAppend(ctx context.Context, dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	return s.gatherWindow(ctx, dst, q, func(sh *state, dst []geom.Point) []geom.Point {
		// The only error is ctx's, which gatherWindow reports.
		out, _ := sh.idx.WindowQueryAppend(ctx, dst, q)
		return out
	})
}

// ExactWindowContext returns the exact window answer (per-shard RSMIa
// traversal; the union over a partition is exact), observing ctx between
// shard visits.
func (s *Sharded) ExactWindowContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	return s.gatherWindow(ctx, nil, q, func(sh *state, dst []geom.Point) []geom.Point {
		return append(dst, sh.idx.ExactWindow(q)...)
	})
}

// KNNContext returns up to k approximate nearest neighbours, closest
// first. The shard whose region is nearest q is searched first, on the
// calling goroutine; its answer sets a distance bound, and only the shards
// whose region MINDIST still beats the bound are searched after, on
// Workers goroutines. Results carry the same approximation guarantees as
// the single-index RSMI (§4.3); ExactKNNContext is the exact variant. ctx
// is observed between shard visits.
func (s *Sharded) KNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	return s.knnFanOut(ctx, q, k,
		func(sh *state, q geom.Point, k int) []geom.Point { return sh.idx.KNN(q, k) })
}

// ExactKNNContext returns the exact k nearest neighbours: each visited
// shard answers exactly, shards are pruned only when their region provably
// cannot hold a closer point, and the merged top-k over a partition of the
// data is therefore exact. ctx is observed between shard visits.
func (s *Sharded) ExactKNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	return s.knnFanOut(ctx, q, k,
		func(sh *state, q geom.Point, k int) []geom.Point { return sh.idx.ExactKNN(q, k) })
}

// DeleteContext removes the point with p's exact coordinates from
// whichever shard holds it, observing ctx between candidate-shard probes.
// A trace in ctx counts the shards probed.
func (s *Sharded) DeleteContext(ctx context.Context, p geom.Point) (bool, error) {
	tr := obs.FromContext(ctx)
	probed := 0
	for sh := range s.pointCandidates(p) {
		if err := ctx.Err(); err != nil {
			tr.AddShards(probed)
			return false, err
		}
		probed++
		sh.mu.Lock()
		ok := sh.idx.Delete(p)
		if ok {
			s.notify(WriteOp{Kind: WriteDelete, P: p})
		}
		sh.mu.Unlock()
		if ok {
			tr.AddShards(probed)
			return true, nil
		}
	}
	tr.AddShards(probed)
	return false, ctx.Err()
}
