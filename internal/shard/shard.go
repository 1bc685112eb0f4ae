// Package shard scales the RSMI beyond a single goroutine by partitioning
// the data across S independent RSMI instances and serving queries by
// parallel fan-out, the approach of partition-then-learn systems such as
// "The Case for Learned Spatial Indexes" (Pandey et al., 2020) and LiLIS
// (Chen et al., 2025).
//
// # Partitioning
//
// Space partitioning (the default) orders all points by the same rank-space
// curve-value technique the RSMI leaves use (§3.1) and cuts the ordering
// into S contiguous runs, so each shard covers a compact region of the
// curve and window queries touch few shards. Hash partitioning spreads
// points by a coordinate hash; it gives perfect balance under any update
// skew at the price of every window/kNN query visiting every shard.
//
// # Concurrency
//
// Each shard owns a sync.RWMutex: queries on one shard take its read lock
// and run in parallel with queries on every shard, while updates take only
// the owning shard's write lock, so updates on different shards proceed
// concurrently — unlike the single global RWMutex of rsmi.NewConcurrent,
// which serialises every update against all queries. Rebuild is rolling:
// one shard retrains at a time while the rest keep serving, bounding the
// stall a periodic rebuild (§5) inflicts on live queries to a single
// shard's retraining time.
//
// # Correctness
//
// The shards partition the point set, so the per-index guarantees compose:
// point queries are exact, window queries have no false positives (each
// shard's answer has none, and the union introduces none), and ExactWindow
// and ExactKNN remain exact. The kNN fan-out is nearest-shard-first with a
// shared distance bound: the shard whose region is nearest the query is
// searched first, and only then are the shards whose region MINDIST still
// beats the current k-th candidate searched, in parallel. A shard skipped
// this way holds no point closer than the k-th candidate, so the answer
// equals the merge of every shard's answer up to distance ties.
package shard

import (
	"cmp"
	"context"
	"fmt"
	"iter"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rsmi/internal/core"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/obs"
	"rsmi/internal/rank"
	"rsmi/internal/store"
)

// Partitioning selects how points are assigned to shards.
type Partitioning int

const (
	// Space cuts the rank-space curve ordering into S contiguous runs
	// (compact shard regions; window queries touch few shards).
	Space Partitioning = iota
	// Hash assigns points by a coordinate hash (perfect balance; every
	// window/kNN query fans out to all shards).
	Hash
)

// String implements fmt.Stringer.
func (p Partitioning) String() string {
	switch p {
	case Space:
		return "space"
	case Hash:
		return "hash"
	default:
		return fmt.Sprintf("shard.Partitioning(%d)", int(p))
	}
}

// Options configures a Sharded index. The zero value selects GOMAXPROCS
// shards, space partitioning, as many fan-out workers as shards, and the
// paper-default core.Options for every shard.
type Options struct {
	// Shards is S, the number of independent RSMI instances (default
	// GOMAXPROCS, minimum 1).
	Shards int
	// Workers bounds the goroutines a single query fans out to (default
	// Shards).
	Workers int
	// Partitioning selects Space (default) or Hash assignment.
	Partitioning Partitioning
	// Index configures each shard's RSMI; the zero value selects the
	// paper's defaults, as in core.Options.
	Index core.Options
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Workers <= 0 {
		o.Workers = o.Shards
	}
	return o
}

// state is one shard: an RSMI guarded by its own lock, plus its routing
// region. The region is always a superset of the shard's live points
// (extended on insert, never shrunk except by rebuild), so region-based
// pruning is conservative and stays correct. It lives behind an atomic
// pointer rather than the shard lock so that routing — which consults
// every shard's region — never blocks on a shard that is busy rebuilding
// or inserting; region writes happen only under mu, region reads take no
// lock at all.
type state struct {
	mu     sync.RWMutex
	idx    *core.RSMI
	region atomic.Pointer[geom.Rect]
}

// loadRegion reads the routing region without taking the shard lock.
func (sh *state) loadRegion() geom.Rect { return *sh.region.Load() }

// storeRegion publishes a new routing region; callers hold sh.mu.
func (sh *state) storeRegion(r geom.Rect) { sh.region.Store(&r) }

// Sharded is an S-way sharded RSMI. All methods are safe for concurrent
// use. It implements rsmi.Engine.
type Sharded struct {
	opts      Options
	shards    []*state
	buildTime time.Duration
	// hook holds the copy-on-write list of write observers (hook.go);
	// the serving layer's replication oplog and the standing-query
	// matcher both tap writes here. hookMu serialises list mutation
	// only — the write path reads the list with one atomic load.
	hook   atomic.Pointer[[]*hookEntry]
	hookMu sync.Mutex
}

// New builds a Sharded index over the points. Shard construction (model
// training included) runs in parallel. The input slice is not modified.
//
// When opts.Index.PartitionThreshold is unset, New derives a per-shard
// threshold instead of core's global default: a shard holding close to the
// default threshold N=10,000 would otherwise build as one maximal leaf,
// whose prediction error bounds are an order of magnitude looser than the
// small leaves a hierarchical build produces (scans of ±40 blocks instead
// of ±4 at harness training budgets), erasing the gains of sharding.
func New(pts []geom.Point, opts Options) *Sharded {
	opts = opts.withDefaults()
	opts.Index = deriveIndexOptions(opts, len(pts))
	start := time.Now()
	s := &Sharded{opts: opts}
	parts := partition(pts, opts)
	s.shards = make([]*state, opts.Shards)
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			io := opts.Index
			// Distinct seeds keep shard models independent even though every
			// shard shares one Options value.
			io.Seed += int64(i) * 7919
			sh := &state{idx: core.New(parts[i], io)}
			sh.storeRegion(geom.BoundingRect(parts[i]))
			s.shards[i] = sh
		}(i)
	}
	wg.Wait()
	s.buildTime = time.Since(start)
	return s
}

// deriveIndexOptions returns the per-shard core options: an unset
// PartitionThreshold defaults to roughly a quarter of the shard's share of
// the points, clamped to [4·B, core default], so every shard keeps a
// multi-leaf hierarchy with tight error bounds. Explicit thresholds are
// respected unchanged.
func deriveIndexOptions(opts Options, n int) core.Options {
	io := opts.Index
	if io.PartitionThreshold != 0 {
		return io
	}
	blockCap := io.BlockCapacity
	if blockCap == 0 {
		blockCap = store.DefaultBlockCapacity
	}
	per := (n + opts.Shards - 1) / opts.Shards
	thr := per / 4
	if min := 4 * blockCap; thr < min {
		thr = min
	}
	if thr > core.DefaultPartitionThreshold {
		thr = core.DefaultPartitionThreshold
	}
	io.PartitionThreshold = thr
	return io
}

// partition assigns pts to opts.Shards groups.
func partition(pts []geom.Point, opts Options) [][]geom.Point {
	parts := make([][]geom.Point, opts.Shards)
	if opts.Partitioning == Hash {
		for _, p := range pts {
			i := int(hashPoint(p) % uint64(opts.Shards))
			parts[i] = append(parts[i], p)
		}
		return parts
	}
	// Space: contiguous runs of the rank-space curve ordering (§3.1), the
	// same ordering RSMI leaves pack blocks in.
	ordered := rank.Order(pts, opts.Index.Curve)
	per := (len(ordered) + opts.Shards - 1) / opts.Shards
	if per == 0 {
		per = 1
	}
	for i := range parts {
		lo := i * per
		if lo > len(ordered) {
			lo = len(ordered)
		}
		hi := lo + per
		if hi > len(ordered) {
			hi = len(ordered)
		}
		parts[i] = ordered[lo:hi]
	}
	return parts
}

// hashPoint is FNV-1a over the coordinate bit patterns: deterministic, so
// hash routing is stable across the index's lifetime. Zeros are normalised
// first — -0.0 == +0.0 for point equality, so both must route to the same
// shard.
func hashPoint(p geom.Point) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	x, y := p.X, p.Y
	if x == 0 {
		x = 0
	}
	if y == 0 {
		y = 0
	}
	h := uint64(offset)
	for _, v := range [2]uint64{math.Float64bits(x), math.Float64bits(y)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// NumShards returns S.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Options returns the (defaulted) options the index was built with.
func (s *Sharded) Options() Options { return s.opts }

// Name identifies the engine in stats and traces.
func (s *Sharded) Name() string { return "Sharded" }

// String summarises the index.
func (s *Sharded) String() string {
	return fmt.Sprintf("Sharded{shards=%d partitioning=%s n=%d}",
		len(s.shards), s.opts.Partitioning, s.Len())
}

// owner returns the shard that hash routing assigns p to.
func (s *Sharded) owner(p geom.Point) *state {
	return s.shards[int(hashPoint(p)%uint64(len(s.shards)))]
}

// pointCandidates yields the shards that may hold a point with exactly p's
// coordinates: the hash owner under hash partitioning, or every shard whose
// region contains p under space partitioning (regions can overlap once
// inserts have extended them). Every indexed point lies inside its shard's
// region, so the owning shard is always among them.
func (s *Sharded) pointCandidates(p geom.Point) iter.Seq[*state] {
	return func(yield func(*state) bool) {
		if s.opts.Partitioning == Hash {
			yield(s.owner(p))
			return
		}
		for _, sh := range s.shards {
			if sh.loadRegion().Contains(p) && !yield(sh) {
				return
			}
		}
	}
}

// InsertContext adds p, routing it to its owning shard and taking only
// that shard's write lock, so inserts into different shards run
// concurrently. Under space partitioning the owner is the shard whose
// region needs the least enlargement to cover p (ties to the smaller
// region, then the lower shard id), and the chosen region is extended.
// ctx is honoured at entry; an admitted insert always completes (a
// half-applied update would corrupt the owning shard).
func (s *Sharded) InsertContext(ctx context.Context, p geom.Point) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var sh *state
	if s.opts.Partitioning == Hash {
		sh = s.owner(p)
	} else {
		sh = s.routeSpace(p)
	}
	sh.mu.Lock()
	sh.idx.Insert(p)
	sh.storeRegion(sh.loadRegion().ExtendPoint(p))
	// Under the shard lock: for any single point, hook order == apply
	// order (see hook.go).
	s.notify(WriteOp{Kind: WriteInsert, P: p})
	sh.mu.Unlock()
	return nil
}

// routeSpace picks the insert target under space partitioning: the shard
// whose region needs the least enlargement, ties to the smaller region,
// then the lower shard id. Empty shards are considered only when every
// shard is empty.
func (s *Sharded) routeSpace(p geom.Point) *state {
	var best *state
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for _, sh := range s.shards {
		r := sh.loadRegion()
		if r.IsEmpty() {
			continue
		}
		enl := r.Enlargement(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
		area := r.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = sh, enl, area
		}
	}
	if best == nil {
		best = s.shards[0]
	}
	return best
}

// fanOut runs fn(i, shard) for every candidate shard on up to Workers
// goroutines. fn runs under the shard's read lock. Cancellation is
// observed between shard visits: once ctx is done, no further shard is
// visited (visits already started finish — a shard query is microseconds)
// and the context's error is returned.
func (s *Sharded) fanOut(ctx context.Context, cands []*state, fn func(i int, sh *state)) error {
	workers := s.opts.Workers
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		for i, sh := range cands {
			if err := ctx.Err(); err != nil {
				return err
			}
			sh.mu.RLock()
			fn(i, sh)
			sh.mu.RUnlock()
		}
		return ctx.Err()
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(cands) {
					return
				}
				sh := cands[i]
				sh.mu.RLock()
				fn(i, sh)
				sh.mu.RUnlock()
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// gatherWindow fans query out over the shards whose region overlaps q and
// appends their answers to dst (which may be nil) in shard order. query
// appends one shard's answer to the slice it is given. A single
// overlapping shard, the common case under space partitioning, is queried
// on the calling goroutine straight into dst. A context cancelled
// mid-query stops the fan-out between shard visits and returns
// (dst, ctx.Err()): partial answers are never surfaced.
func (s *Sharded) gatherWindow(ctx context.Context, dst []geom.Point, q geom.Rect, query func(sh *state, dst []geom.Point) []geom.Point) ([]geom.Point, error) {
	n, last := 0, -1
	for i, sh := range s.shards {
		if sh.loadRegion().Intersects(q) {
			n, last = n+1, i
		}
	}
	// A trace in ctx (EXPLAIN / slow-query sampling) counts the shards
	// whose region overlapped the window — the query's fan-out width.
	tr := obs.FromContext(ctx)
	if n <= 1 {
		tr.AddShards(n)
		if err := ctx.Err(); n == 0 || err != nil {
			return dst, err
		}
		sh := s.shards[last]
		sh.mu.RLock()
		out := query(sh, dst)
		sh.mu.RUnlock()
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		return out, nil
	}
	cands := make([]*state, 0, n)
	for _, sh := range s.shards {
		if sh.loadRegion().Intersects(q) {
			cands = append(cands, sh)
		}
	}
	tr.AddShards(len(cands))
	per := make([][]geom.Point, len(cands))
	if err := s.fanOut(ctx, cands, func(i int, sh *state) { per[i] = query(sh, nil) }); err != nil {
		return dst, err
	}
	out := dst
	for _, r := range per {
		out = append(out, r...)
	}
	return out, nil
}

// shardKNN is one shard's kNN search, run under the shard's read lock.
type shardKNN func(sh *state, q geom.Point, k int) []geom.Point

// knnFanOut is the single-query kNN: a batch of one through knnSearch.
func (s *Sharded) knnFanOut(ctx context.Context, q geom.Point, k int, query shardKNN) ([]geom.Point, error) {
	if k <= 0 {
		return nil, ctx.Err()
	}
	out, err := s.knnSearch(ctx, []KNNQuery{{Q: q, K: k}}, query)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// knnSearch is the nearest-shard-first kNN search behind KNNContext,
// ExactKNNContext and BatchKNNContext. It answers every query in two
// passes:
//
//  1. each query searches its nearest shard: the non-empty shard with the
//     smallest MINDIST from the query to its region, ties to the lower
//     shard id. That answer sets the query's distance bound.
//  2. each query searches every other non-empty shard whose MINDIST still
//     beats its bound.
//
// Within a pass the queries are grouped by shard, so a shard's read lock
// is taken once per pass, and the groups fan out on Workers goroutines,
// nearest group first; a pass with one group runs on the calling
// goroutine. The bound only shrinks, so a shard skipped in pass 2, or
// skipped by the re-check when its group runs, holds no point closer than
// the query's final k-th candidate: the answer equals the merge of every
// shard's answer up to distance ties, whatever the scheduling. A query
// with K <= 0 gets nil. A trace in ctx counts the distinct shards
// visited.
func (s *Sharded) knnSearch(ctx context.Context, qs []KNNQuery, query shardKNN) ([][]geom.Point, error) {
	tasks := make([]knnTask, len(qs))
	groups := make([]knnGroup, len(s.shards))
	for i, q := range qs {
		t := &tasks[i]
		t.reset(q.K, q.Q)
		t.nearest = -1
		if q.K <= 0 {
			continue
		}
		best := math.Inf(1)
		for j, sh := range s.shards {
			r := sh.loadRegion()
			if r.IsEmpty() {
				continue
			}
			if d := r.MinDist2(q.Q); t.nearest < 0 || d < best {
				t.nearest, best = j, d
			}
		}
		if t.nearest >= 0 {
			groups[t.nearest].add(i, best)
		}
	}
	search := func(sh *state, queries []int) {
		r := sh.loadRegion()
		for _, i := range queries {
			q, t := qs[i], &tasks[i]
			// Re-check: another shard may have tightened the bound since
			// the query joined this group.
			if r.MinDist2(q.Q) >= t.worst() {
				continue
			}
			t.merge(query(sh, q.Q, q.K))
		}
	}
	err := s.visitGroups(ctx, groups, search)
	if err == nil {
		for j := range groups {
			groups[j].queries = groups[j].queries[:0]
		}
		for i, q := range qs {
			t := &tasks[i]
			if t.nearest < 0 {
				continue
			}
			for j, sh := range s.shards {
				r := sh.loadRegion()
				if j == t.nearest || r.IsEmpty() {
					continue
				}
				if d := r.MinDist2(q.Q); d < t.worst() {
					groups[j].add(i, d)
				}
			}
		}
		err = s.visitGroups(ctx, groups, search)
	}
	n := 0
	for _, g := range groups {
		if g.searched {
			n++
		}
	}
	obs.FromContext(ctx).AddShards(n)
	if err != nil {
		return nil, err
	}
	out := make([][]geom.Point, len(qs))
	for i := range tasks {
		out[i] = tasks[i].pts
	}
	return out, nil
}

// knnTask is one query's state in knnSearch: its candidates and bound,
// and the shard it searched in pass 1 (-1 when there is none).
type knnTask struct {
	sharedBound
	nearest int
}

// knnGroup is one shard's share of a knnSearch pass.
type knnGroup struct {
	queries []int   // indexes of the queries searching the shard
	dist    float64 // the smallest MINDIST among them: visit priority
	// searched records that some pass visited the shard; each shard's
	// group is written only by the goroutine visiting it.
	searched bool
}

// add puts query i, at MINDIST d from the shard's region, in the group.
func (g *knnGroup) add(i int, d float64) {
	if len(g.queries) == 0 || d < g.dist {
		g.dist = d
	}
	g.queries = append(g.queries, i)
}

// visitGroups runs fn on every shard with a non-empty group, under the
// shard's read lock, nearest group first, on up to Workers goroutines
// (fanOut).
func (s *Sharded) visitGroups(ctx context.Context, groups []knnGroup, fn func(sh *state, queries []int)) error {
	var ids []int
	for j := range groups {
		if len(groups[j].queries) > 0 {
			ids = append(ids, j)
		}
	}
	if len(ids) == 0 {
		return ctx.Err()
	}
	slices.SortStableFunc(ids, func(a, b int) int { return cmp.Compare(groups[a].dist, groups[b].dist) })
	cands := make([]*state, len(ids))
	for i, j := range ids {
		cands[i] = s.shards[j]
	}
	return s.fanOut(ctx, cands, func(i int, sh *state) {
		g := &groups[ids[i]]
		g.searched = true
		fn(sh, g.queries)
	})
}

// sharedBound is the concurrent bounded candidate set of the multi-shard
// kNN: at most k points, exposing the squared distance of the current k-th
// best as the pruning bound.
type sharedBound struct {
	mu sync.Mutex
	q  geom.Point
	k  int
	// kth is the current squared k-th distance, readable without the lock
	// (stored via atomic bits); +Inf until k candidates exist.
	kthBits atomic.Uint64
	pts     []geom.Point
}

// reset empties the set for a query for the k nearest points to q.
func (b *sharedBound) reset(k int, q geom.Point) {
	b.q, b.k, b.pts = q, k, nil
	b.kthBits.Store(math.Float64bits(math.Inf(1)))
}

// worst returns the current pruning bound (squared distance).
func (b *sharedBound) worst() float64 {
	return math.Float64frombits(b.kthBits.Load())
}

// merge folds a shard's candidates into the set and tightens the bound.
// The set takes ownership of pts.
func (b *sharedBound) merge(pts []geom.Point) {
	if len(pts) == 0 {
		return
	}
	b.mu.Lock()
	if b.pts == nil {
		b.pts = pts
	} else {
		b.pts = append(b.pts, pts...)
	}
	index.SortByDistance(b.pts, b.q)
	if len(b.pts) > b.k {
		b.pts = b.pts[:b.k]
	}
	if len(b.pts) == b.k {
		b.kthBits.Store(math.Float64bits(b.q.Dist2(b.pts[len(b.pts)-1])))
	}
	b.mu.Unlock()
}

// RebuildContext retrains every shard from its current live points as a
// rolling rebuild: shards rebuild one at a time behind their own write
// lock, so queries and updates on every other shard keep flowing while
// one shard retrains — unlike a single-RWMutex engine, where a rebuild
// stalls the whole service for the full retraining time (§5 prescribes
// periodic rebuilds under sustained updates). Each shard keeps its
// current points (the partition assignment does not change) and its
// region is recomputed, tightening routing after deletions.
//
// ctx is observed between shards: a cancelled context stops before the
// next shard retrains. Shards already rebuilt stay rebuilt (each swap is
// atomic under the shard lock), so an aborted rebuild never leaves the
// index inconsistent — merely partially retrained, and a later rebuild
// finishes the job.
func (s *Sharded) RebuildContext(ctx context.Context) error {
	for i, sh := range s.shards {
		if err := ctx.Err(); err != nil {
			return err
		}
		sh.mu.Lock()
		pts := sh.idx.AllPoints()
		io := s.opts.Index
		io.Seed += int64(i) * 7919
		sh.idx = core.New(pts, io)
		sh.storeRegion(geom.BoundingRect(pts))
		sh.mu.Unlock()
	}
	s.notify(WriteOp{Kind: WriteRebuild})
	return nil
}

// Len returns the number of live points across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.idx.Len()
		sh.mu.RUnlock()
	}
	return n
}

// Accesses returns the total block accesses across shards.
func (s *Sharded) Accesses() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.idx.Accesses()
		sh.mu.RUnlock()
	}
	return n
}

// ResetAccesses zeroes every shard's block-access counter.
func (s *Sharded) ResetAccesses() {
	for _, sh := range s.shards {
		sh.mu.RLock()
		sh.idx.ResetAccesses()
		sh.mu.RUnlock()
	}
}

// Stats aggregates structural statistics over shards: sizes, blocks and
// model counts sum; the height is the tallest shard's; BuildTime is the
// wall-clock parallel build time.
func (s *Sharded) Stats() index.Stats {
	out := index.Stats{Name: s.Name(), BuildTime: s.buildTime}
	for _, sh := range s.shards {
		sh.mu.RLock()
		st := sh.idx.Stats()
		sh.mu.RUnlock()
		out.SizeBytes += st.SizeBytes
		out.Blocks += st.Blocks
		out.Models += st.Models
		if st.Height > out.Height {
			out.Height = st.Height
		}
		if st.ErrLow > out.ErrLow {
			out.ErrLow = st.ErrLow
		}
		if st.ErrHigh > out.ErrHigh {
			out.ErrHigh = st.ErrHigh
		}
	}
	return out
}

// ShardStats returns per-shard statistics, useful for balance inspection.
func (s *Sharded) ShardStats() []index.Stats {
	out := make([]index.Stats, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		out[i] = sh.idx.Stats()
		sh.mu.RUnlock()
	}
	return out
}
