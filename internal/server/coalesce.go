package server

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"rsmi/internal/obs"
)

// coalescer transparently micro-batches concurrent single-query requests:
// handlers submit one query each and block for their answer, while a
// single dispatcher goroutine per op type collects submissions into
// batches and executes one engine batch call per batch. Two knobs bound
// the batching:
//
//   - maxBatch caps the queries per engine call;
//   - window is the longest a query waits for peers after the batch's
//     first query arrives. A zero window never waits on the clock:
//     the dispatcher takes whatever queued up while the previous batch
//     executed (opportunistic batching — batch size adapts to load and
//     idle requests pay no added latency).
//
// The dispatcher executing batches serially is the point: under load,
// arrivals accumulate in the submit channel while a batch runs, so the
// next batch is bigger and the per-query overhead (lock acquisitions,
// fan-out hand-offs) shrinks — the inference-amortisation argument of
// "The Case for Learned Spatial Indexes" applied to concurrent clients.
//
// # Contexts
//
// Every submission carries its request's context. The engine call runs
// under a batch context carrying the earliest deadline of the
// micro-batch's members (cancellation signals are deliberately NOT
// merged: one client's disconnect must not fail its batch peers, but a
// deadline the server cannot meet for the most impatient member is
// worth enforcing for the whole batch — see batchContext). A caller
// whose own context ends while its batch is queued or executing stops
// waiting and gets its context's error; the batch still completes for
// its peers.
type coalescer[Q, R any] struct {
	in       chan pending[Q, R]
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	run      func(context.Context, []Q) ([]R, error)
	maxBatch int
	window   time.Duration
	// accesses, when non-nil, reads the engine's cumulative block-access
	// counter; traced batches are bracketed with it so EXPLAIN and the
	// slow-query log report block accesses (see obs.Trace.AddAccesses
	// for the concurrency caveat).
	accesses func() int64

	batches atomic.Int64
	queries atomic.Int64
	maxSeen atomic.Int64
	// direct counts queries executed by the post-shutdown fallback in do,
	// outside any batch: without it, drain-time traffic would vanish from
	// the stats snapshot.
	direct atomic.Int64
	// sizes is the batch-size distribution for /metrics: bucket k counts
	// batches of size (2^(k-1), 2^k] (bucket 0 is size 1), the last
	// bucket everything larger.
	sizes [coalesceSizeBuckets]atomic.Int64
}

// coalesceSizeBuckets spans batch sizes 1, 2, 4, … 64, >64.
const coalesceSizeBuckets = 8

// sizeBucketOf maps a batch size to its distribution bucket.
func sizeBucketOf(n int) int {
	if n < 1 {
		n = 1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b >= coalesceSizeBuckets {
		b = coalesceSizeBuckets - 1
	}
	return b
}

// pending is one submitted query awaiting its batch, with the context of
// the request that submitted it. tr and enq are set only for traced
// requests: the coalesce-wait span and batch size are recorded on the
// trace when its batch executes.
type pending[Q, R any] struct {
	q     Q
	ctx   context.Context
	reply chan answer[R]
	tr    *obs.Trace
	enq   time.Time
	// cap, when > 0, is the planner's batch-size hint for this query: a
	// batch it opens collects at most min(cap, maxBatch) members. 0 (no
	// planner, or no hint) leaves maxBatch in charge.
	cap int
}

// answer is one query's outcome: its result or its batch's error.
type answer[R any] struct {
	r   R
	err error
}

// newCoalescer starts the dispatcher goroutine.
func newCoalescer[Q, R any](maxBatch int, window time.Duration, run func(context.Context, []Q) ([]R, error)) *coalescer[Q, R] {
	c := &coalescer[Q, R]{
		in:       make(chan pending[Q, R], 2*maxBatch),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		run:      run,
		maxBatch: maxBatch,
		window:   window,
	}
	go c.loop()
	return c
}

// do submits one query and blocks until its batch executed or ctx ends.
// After shutdown it degrades to direct execution, so late callers never
// hang. A non-nil tr records the coalesce-wait span, batch size, and the
// batch's shard/access counters when its batch executes; tr == nil is
// the untraced hot path and adds no work beyond two nil stores in the
// pending struct. batchCap is the planner's batch-size hint: when this
// query opens a batch, the batch collects at most batchCap members (0 =
// no hint). Only the opener's hint applies — followers joined a batch
// already sized by whoever opened it.
func (c *coalescer[Q, R]) do(ctx context.Context, q Q, tr *obs.Trace, batchCap int) (R, error) {
	var zero R
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	p := pending[Q, R]{q: q, ctx: ctx, reply: make(chan answer[R], 1), cap: batchCap}
	if tr != nil {
		p.tr = tr
		p.enq = time.Now()
	}
	select {
	case c.in <- p:
	case <-ctx.Done():
		return zero, ctx.Err()
	case <-c.stop:
		// in's buffer is full (or stop won the race): run directly.
		c.direct.Add(1)
		return c.runOne(ctx, q, tr)
	}
	// The submit channel is buffered, so the send can succeed after stop
	// closed; if the dispatcher exits without draining our item, fall back
	// to direct execution (done closes only after the dispatcher's last
	// reply, so a non-blocking reply check is then definitive).
	select {
	case a := <-p.reply:
		return a.r, a.err
	case <-ctx.Done():
		// Abandon the slot: the dispatcher answers into the buffered reply
		// channel (never blocking on us) and the batch completes for its
		// peers; this caller's client is gone or out of time.
		return zero, ctx.Err()
	case <-c.done:
		select {
		case a := <-p.reply:
			return a.r, a.err
		default:
			c.direct.Add(1)
			return c.runOne(ctx, q, tr)
		}
	}
}

// runOne executes a single query outside any batch, recording it on tr
// as a batch of one when traced.
func (c *coalescer[Q, R]) runOne(ctx context.Context, q Q, tr *obs.Trace) (R, error) {
	if tr != nil {
		tr.SetBatchSize(1)
		ctx = obs.With(ctx, tr)
		if c.accesses != nil {
			before := c.accesses()
			defer func() { tr.AddAccesses(c.accesses() - before) }()
		}
	}
	rs, err := c.run(ctx, []Q{q})
	if err != nil {
		var zero R
		return zero, err
	}
	return rs[0], nil
}

// shutdown stops the dispatcher and waits for it to serve any queries
// already submitted. It is idempotent, so Server.Shutdown may be called
// more than once (signal handler plus deferred cleanup).
func (c *coalescer[Q, R]) shutdown() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// snapshot returns the batching counters.
func (c *coalescer[Q, R]) snapshot() (batches, queries, maxSeen, direct int64) {
	return c.batches.Load(), c.queries.Load(), c.maxSeen.Load(), c.direct.Load()
}

// sizesSnapshot returns the batch-size distribution for /metrics.
func (c *coalescer[Q, R]) sizesSnapshot() (out [coalesceSizeBuckets]int64) {
	for i := range c.sizes {
		out[i] = c.sizes[i].Load()
	}
	return out
}

func (c *coalescer[Q, R]) loop() {
	defer close(c.done)
	for {
		select {
		case p := <-c.in:
			c.collectAndRun(p)
		case <-c.stop:
			// Drain stragglers that won the submit race, then exit.
			for {
				select {
				case p := <-c.in:
					c.collectAndRun(p)
				default:
					return
				}
			}
		}
	}
}

// batchContext derives the context an engine batch call runs under: the
// earliest deadline among the batch's members, on a fresh background
// context. Member cancellations are not propagated — a batch is shared
// work, and one caller's disconnect must not fail its peers — but the
// earliest deadline is: if the server cannot answer the most impatient
// member in time, the whole batch is abandoned rather than computed for
// callers who have stopped waiting.
func batchContext[Q, R any](batch []pending[Q, R]) (context.Context, context.CancelFunc) {
	var earliest time.Time
	for _, p := range batch {
		if d, ok := p.ctx.Deadline(); ok && (earliest.IsZero() || d.Before(earliest)) {
			earliest = d
		}
	}
	if earliest.IsZero() {
		//rsmi:allow ctxflow -- batch ctx is deliberately detached: one member's cancel must not fail its peers
		return context.Background(), nil
	}
	//rsmi:allow ctxflow -- batch ctx keeps only the earliest member deadline, never a member's cancel
	return context.WithDeadline(context.Background(), earliest)
}

// collectAndRun grows a batch from first, executes it, and distributes
// the answers.
func (c *coalescer[Q, R]) collectAndRun(first pending[Q, R]) {
	max := c.maxBatch
	if first.cap > 0 && first.cap < max {
		max = first.cap
	}
	batch := make([]pending[Q, R], 1, max)
	batch[0] = first
	if c.window > 0 {
		timer := time.NewTimer(c.window)
	fill:
		for len(batch) < max {
			select {
			case p := <-c.in:
				batch = append(batch, p)
			case <-timer.C:
				break fill
			case <-c.stop:
				break fill
			}
		}
		timer.Stop()
	} else {
		// Opportunistic: drain whatever queued while the previous batch
		// executed, without waiting on the clock.
	drain:
		for len(batch) < max {
			select {
			case p := <-c.in:
				batch = append(batch, p)
			default:
				break drain
			}
		}
	}
	// Members whose context already ended (deadline passed while queued,
	// client gone) are answered with their own error and excluded: an
	// expired member must neither be computed for nor poison the batch
	// context with an already-past deadline, failing healthy peers.
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			p.reply <- answer[R]{err: err}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	qs := make([]Q, len(live))
	for i, p := range live {
		qs[i] = p.q
	}
	ctx, cancel := batchContext(live)
	// Record the coalesce wait and batch size on every traced member, and
	// attach the first traced member's trace to the batch context so the
	// engine's shard fan-out can count shards visited. Shard and access
	// counts land on that one trace; batch size and wait land on all.
	var lead *obs.Trace
	var now time.Time
	for _, p := range live {
		if p.tr == nil {
			continue
		}
		if now.IsZero() {
			now = time.Now()
		}
		p.tr.ObserveStage(obs.StageCoalesce, now.Sub(p.enq))
		p.tr.SetBatchSize(len(live))
		if lead == nil {
			lead = p.tr
			ctx = obs.With(ctx, lead)
		}
	}
	var accBefore int64
	if lead != nil && c.accesses != nil {
		accBefore = c.accesses()
	}
	rs, err := c.run(ctx, qs)
	if lead != nil && c.accesses != nil {
		lead.AddAccesses(c.accesses() - accBefore)
	}
	if cancel != nil {
		cancel()
	}
	if err == nil && len(rs) != len(live) {
		err = fmt.Errorf("server: engine batch returned %d answers for %d queries", len(rs), len(live))
	}
	for i, p := range live {
		if err != nil {
			p.reply <- answer[R]{err: err}
		} else {
			p.reply <- answer[R]{r: rs[i]}
		}
	}
	c.batches.Add(1)
	c.queries.Add(int64(len(live)))
	c.sizes[sizeBucketOf(len(live))].Add(1)
	if n := int64(len(live)); n > c.maxSeen.Load() {
		c.maxSeen.Store(n)
	}
}
