package rsmi

// The v2 query API: one context-aware, error-returning interface over the
// RSMI engines *and* the paper's baseline indexes, so the serving stack
// (internal/server, cmd/rsmi-serve) can put any backend behind the same
// HTTP/binary/TCP endpoints. "The Case for Learned Spatial Indexes"
// (Pandey et al., 2020) and "Evaluating Learned Spatial Indexes" (Pai et
// al.) both argue that learned spatial indexes must be compared inside a
// full query-processing pipeline under identical harnesses — this
// interface is that harness's contract.
//
// Every method takes a context.Context and returns an error, which is
// non-nil only when the context is cancelled or past its deadline.
// Sharded observes cancellation *between shard visits* of its fan-outs
// (window, kNN, batches) and between shard retrains of a rolling rebuild;
// Index and the locked adapters execute a single query in microseconds
// and check the context at entry (batch variants also check between
// elements).

import (
	"context"
)

// Engine is the context-aware queryable surface shared by every backend:
// Index, Sharded, and the locked adapters over a single-goroutine index
// (NewConcurrent, NewRStarEngine, NewGridFileEngine, NewKDBEngine). It is
// the contract the serving layer (internal/server) executes against.
//
// Answer semantics are the concrete type's: RSMI-backed engines answer
// window and kNN queries approximately (no false positives; the exact
// forms are concrete methods: Index.ExactWindow / ExactKNN and
// Sharded.ExactWindowContext / ExactKNNContext), baseline-backed engines
// answer everything exactly.
type Engine interface {
	// Name identifies the backend ("Sharded", "RSMI", "RR*", "Grid",
	// "KDB", …) in stats and bench reports.
	Name() string

	PointQueryContext(ctx context.Context, q Point) (bool, error)
	WindowQueryContext(ctx context.Context, q Rect) ([]Point, error)
	// WindowQueryAppend appends the window answer to dst and returns the
	// extended slice, so callers reusing result buffers across queries
	// avoid the per-query allocation. On error dst is returned unextended.
	WindowQueryAppend(ctx context.Context, dst []Point, q Rect) ([]Point, error)
	KNNContext(ctx context.Context, q Point, k int) ([]Point, error)

	// The batch set amortises per-call overhead (locks, fan-out
	// hand-offs) across many queries; answers are element-wise identical
	// to the single-query methods.
	BatchPointQueryContext(ctx context.Context, qs []Point) ([]bool, error)
	BatchWindowQueryContext(ctx context.Context, qs []Rect) ([][]Point, error)
	BatchKNNContext(ctx context.Context, qs []KNNQuery) ([][]Point, error)

	InsertContext(ctx context.Context, p Point) error
	DeleteContext(ctx context.Context, p Point) (bool, error)
	// RebuildContext retrains learned engines from their live points; on
	// baseline adapters it is a no-op (there is nothing to retrain).
	RebuildContext(ctx context.Context) error

	Len() int
	Stats() Stats
	Accesses() int64
}

// Every engine implements the v2 API, the locked adapter included (its
// assertion lives in adapter.go).
var (
	_ Engine = (*Index)(nil)
	_ Engine = (*Sharded)(nil)
)
