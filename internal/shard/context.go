package shard

// Context-aware query surface (the rsmi.Engine v2 API). Unlike the
// single-index core — whose queries run on one goroutine in microseconds
// and only check the context at entry — the sharded engine observes
// cancellation *during* execution: every fan-out (window, kNN, the batch
// variants) checks the context between shard visits, and the rolling
// rebuild checks it between shard retrains. A query against a 64-shard
// index whose client disconnects after the second shard therefore stops
// paying for the remaining 62.
//
// The context-free methods (PointQuery, WindowQuery, …) remain as thin
// compatibility wrappers over these with context.Background().

import (
	"context"

	"rsmi/internal/geom"
	"rsmi/internal/obs"
)

// PointQueryContext is PointQuery observing ctx between candidate-shard
// probes. A trace in ctx counts the shards actually probed (the walk
// stops at the first hit).
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

// WindowQueryContext is WindowQuery observing ctx between shard visits of
// the fan-out. On cancellation it returns ctx's error and no points —
// never a partial answer.
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

// ExactWindowContext is ExactWindow observing ctx between shard visits.
func (s *Sharded) ExactWindowContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	return s.gatherWindow(ctx, nil, q, func(sh *state, dst []geom.Point) []geom.Point {
		return append(dst, sh.idx.ExactWindow(q)...)
	})
}

// KNNContext is KNN observing ctx between shard visits of the
// nearest-shard-first fan-out.
func (s *Sharded) KNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	return s.knnFanOut(ctx, q, k,
		func(sh *state, q geom.Point, k int) []geom.Point { return sh.idx.KNN(q, k) })
}

// ExactKNNContext is ExactKNN observing ctx between shard visits.
func (s *Sharded) ExactKNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	return s.knnFanOut(ctx, q, k,
		func(sh *state, q geom.Point, k int) []geom.Point { return sh.idx.ExactKNN(q, k) })
}

// BatchPointQueryContext is BatchPointQuery observing ctx between shard
// visits.
func (s *Sharded) BatchPointQueryContext(ctx context.Context, qs []geom.Point) ([]bool, error) {
	return s.batchPointQuery(ctx, qs)
}

// BatchWindowQueryContext is BatchWindowQuery observing ctx between shard
// visits.
func (s *Sharded) BatchWindowQueryContext(ctx context.Context, qs []geom.Rect) ([][]geom.Point, error) {
	return s.batchWindowQuery(ctx, qs)
}

// BatchKNNContext is BatchKNN observing ctx between shard visits.
func (s *Sharded) BatchKNNContext(ctx context.Context, qs []KNNQuery) ([][]geom.Point, error) {
	return s.batchKNN(ctx, qs)
}

// InsertContext is Insert honouring ctx at entry; an admitted insert
// always completes (a half-applied update would corrupt the owning shard).
func (s *Sharded) InsertContext(ctx context.Context, p geom.Point) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.Insert(p)
	return nil
}

// DeleteContext is Delete observing ctx between candidate-shard probes.
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

// RebuildContext is the rolling rebuild observing ctx between shards: a
// cancelled context stops before the next shard retrains. Shards already
// rebuilt stay rebuilt — the index is never inconsistent, merely partially
// retrained, and a later rebuild finishes the job.
func (s *Sharded) RebuildContext(ctx context.Context) error {
	return s.rebuild(ctx)
}
