package rsmi

// The locked adapter: one harness that lifts any single-goroutine
// index.Index — a single RSMI (NewConcurrent) or one of the paper's
// comparison indexes (R*-tree, Grid File, K-D-B-tree) — onto the
// context-aware Engine surface, so rsmi-serve, rsmi-bench and
// rsmi-loadgen drive every backend of the paper's evaluation through the
// identical serving stack: the "identical harness" requirement of the
// learned-spatial-index evaluation literature. The indexes themselves are
// single-goroutine structures (matching the paper's per-query timing
// methodology); the adapter adds a RWMutex so queries run in parallel and
// updates exclusively.
//
// RebuildContext retrains an index that has a model to retrain (RSMI's
// §5 periodic rebuild) and is a no-op for the baselines, whose trees
// rebalance on insert.

import (
	"context"
	"fmt"
	"sync"

	"rsmi/internal/gridfile"
	"rsmi/internal/index"
	"rsmi/internal/kdb"
	"rsmi/internal/rstar"
)

// NewConcurrent builds an RSMI and wraps it for concurrent use: queries
// take a shared (read) lock and may run in parallel; updates and rebuilds
// take an exclusive lock. The RSMI's query paths are read-only apart from
// atomic block-access counters and allocation-local scratch buffers, so
// shared-lock parallel queries are safe. The paper benchmarks
// single-threaded (§6.1); this wrapper is a library convenience, not part
// of the reproduction.
func NewConcurrent(pts []Point, opts Options) Engine {
	return &lockedEngine{ix: New(pts, opts)}
}

// NewRStarEngine builds an R*-tree-backed Engine over the points. A
// fanout of 0 selects the paper's default (100 entries per node).
func NewRStarEngine(pts []Point, fanout int) Engine {
	return &lockedEngine{ix: rstar.New(pts, fanout)}
}

// NewGridFileEngine builds a Grid-File-backed Engine over the points. A
// blockCapacity of 0 selects the paper's default (100 points per block).
func NewGridFileEngine(pts []Point, blockCapacity int) Engine {
	return &lockedEngine{ix: gridfile.New(pts, blockCapacity)}
}

// NewKDBEngine builds a K-D-B-tree-backed Engine over the points. A
// fanout of 0 selects the paper's default (100 entries per page).
func NewKDBEngine(pts []Point, fanout int) Engine {
	return &lockedEngine{ix: kdb.New(pts, fanout)}
}

// NewBaselineEngine builds a baseline-backed Engine by name — "rstar",
// "grid" (or "gridfile"), "kdb" — with paper-default parameters. It backs
// the cmds' -engine flags.
func NewBaselineEngine(name string, pts []Point) (Engine, error) {
	switch name {
	case "rstar":
		return NewRStarEngine(pts, 0), nil
	case "grid", "gridfile":
		return NewGridFileEngine(pts, 0), nil
	case "kdb":
		return NewKDBEngine(pts, 0), nil
	}
	return nil, fmt.Errorf("unknown baseline engine %q (want rstar|grid|kdb)", name)
}

// lockedEngine adapts an index.Index to the Engine interface: a RWMutex
// for concurrency, entry context checks for the single queries (a query
// runs in microseconds on the calling goroutine), and between-element
// checks for the batch variants, whose single lock acquisition per batch
// amortises lock overhead.
type lockedEngine struct {
	mu sync.RWMutex
	ix index.Index
}

var _ Engine = (*lockedEngine)(nil)

// windowAppender is implemented by indexes that append a window answer to
// a caller's buffer without a per-query result allocation (RSMI).
type windowAppender interface {
	WindowQueryAppend(ctx context.Context, dst []Point, q Rect) ([]Point, error)
}

// retrainer is implemented by indexes with a model to retrain (RSMI).
type retrainer interface{ Rebuild() }

// Name reports the wrapped index's display name ("RSMI", "RR*", "Grid",
// "KDB").
func (e *lockedEngine) Name() string { return e.ix.Name() }

func (e *lockedEngine) PointQueryContext(ctx context.Context, q Point) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ix.PointQuery(q), nil
}

func (e *lockedEngine) WindowQueryContext(ctx context.Context, q Rect) ([]Point, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ix.WindowQuery(q), nil
}

func (e *lockedEngine) WindowQueryAppend(ctx context.Context, dst []Point, q Rect) ([]Point, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if a, ok := e.ix.(windowAppender); ok {
		return a.WindowQueryAppend(ctx, dst, q)
	}
	return append(dst, e.ix.WindowQuery(q)...), nil
}

func (e *lockedEngine) KNNContext(ctx context.Context, q Point, k int) ([]Point, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ix.KNN(q, k), nil
}

func (e *lockedEngine) BatchPointQueryContext(ctx context.Context, qs []Point) ([]bool, error) {
	out := make([]bool, len(qs))
	e.mu.RLock()
	defer e.mu.RUnlock()
	for i, q := range qs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = e.ix.PointQuery(q)
	}
	return out, nil
}

func (e *lockedEngine) BatchWindowQueryContext(ctx context.Context, qs []Rect) ([][]Point, error) {
	out := make([][]Point, len(qs))
	e.mu.RLock()
	defer e.mu.RUnlock()
	for i, q := range qs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = e.ix.WindowQuery(q)
	}
	return out, nil
}

func (e *lockedEngine) BatchKNNContext(ctx context.Context, qs []KNNQuery) ([][]Point, error) {
	out := make([][]Point, len(qs))
	e.mu.RLock()
	defer e.mu.RUnlock()
	for i, q := range qs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = e.ix.KNN(q.Q, q.K)
	}
	return out, nil
}

// InsertContext honours ctx at entry; an admitted insert always
// completes.
func (e *lockedEngine) InsertContext(ctx context.Context, p Point) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ix.Insert(p)
	return nil
}

func (e *lockedEngine) DeleteContext(ctx context.Context, p Point) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ix.Delete(p), nil
}

// RebuildContext retrains the wrapped index from its live points behind
// the write lock, blocking every other operation for the duration; a
// started rebuild runs to completion. It is a no-op for indexes with
// nothing to retrain.
func (e *lockedEngine) RebuildContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if r, ok := e.ix.(retrainer); ok {
		e.mu.Lock()
		defer e.mu.Unlock()
		r.Rebuild()
	}
	return nil
}

func (e *lockedEngine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ix.Len()
}

func (e *lockedEngine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ix.Stats()
}

// Accesses returns the wrapped index's block-access count (the paper's
// external-memory cost indicator, aggregated across all queries).
func (e *lockedEngine) Accesses() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ix.Accesses()
}
