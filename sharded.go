package rsmi

import (
	"io"

	"rsmi/internal/shard"
)

// Sharded partitions the data across S independent RSMI instances and
// serves queries by parallel fan-out: window queries scatter to the
// overlapping shards on worker goroutines, kNN searches the nearest shard
// first and then only the shards whose region still beats the shared
// distance bound, and updates take only
// the owning shard's lock, so updates on different shards proceed
// concurrently. Rebuild is rolling — one shard retrains at a time while
// the others keep serving. It offers the same correctness guarantees as
// the single-index RSMI: exact point queries, window answers with no false
// positives, and exact ExactWindowContext / ExactKNNContext. See
// EXPERIMENTS.md ("Sharded throughput") for measured scaling over the
// single-RWMutex NewConcurrent engine.
type Sharded = shard.Sharded

// ShardOptions configures a Sharded index; the zero value selects
// GOMAXPROCS shards, space partitioning, and paper-default per-shard
// options.
type ShardOptions = shard.Options

// Partitioning selects how Sharded assigns points to shards.
type Partitioning = shard.Partitioning

// Partitioning strategies for ShardOptions.
const (
	// SpacePartitioned cuts the rank-space curve ordering into contiguous
	// runs: compact shard regions, window queries touch few shards.
	SpacePartitioned = shard.Space
	// HashPartitioned spreads points by coordinate hash: perfect balance,
	// every window/kNN query visits all shards.
	HashPartitioned = shard.Hash
)

// KNNQuery is one kNN request in a batch (see Engine.BatchKNNContext): up
// to K nearest neighbours of Q.
type KNNQuery = shard.KNNQuery

// NewSharded builds a sharded RSMI over the points; shards build (and
// train) in parallel.
func NewSharded(pts []Point, opts ShardOptions) *Sharded {
	return shard.New(pts, opts)
}

// LoadSharded deserialises a sharded index previously saved with
// Sharded.WriteTo, so a server can restart without retraining any shard.
func LoadSharded(r io.Reader) (*Sharded, error) {
	return shard.Load(r)
}
