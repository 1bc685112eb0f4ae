package server

// Hedged reads over a replica set — the tail-tolerance mechanism of
// Dean & Barroso's "The Tail at Scale". A read goes to one target; if
// no answer arrives within the hedge delay (pick ~p95 of the read
// latency distribution), the same read is fired at a second target and
// the first answer wins. The loser is cancelled through the context
// plumbing the whole stack threads (client request context → server
// r.Context() → engine shard visits), so a hedge costs at most one
// duplicated read that stops early, in exchange for cutting the p99:
// slow-tail causes local to one replica (a rebuild retraining shards, a
// GC pause, queueing) no longer decide the client-observed tail.
//
// A target that fails outright (transport error) triggers the hedge
// immediately — failover is just a hedge with no delay — which is what
// keeps a load test green while a replica is killed mid-run.
//
// Writes are not hedged: a duplicated insert is harmless (last write
// wins on identical points) but a duplicated delete could answer false
// on the retry. Writes instead fail over to the next target on
// transport errors only — every server forwards writes to the primary,
// so any target can accept them; a write whose connection died
// mid-flight may be retried against a server that already applied it
// (at-least-once, the standard trade).

import (
	"context"
	"sync/atomic"
	"time"

	"rsmi/internal/geom"
)

// DefaultHedgeDelay is used when HedgedOptions.Delay is zero. It is a
// conservative stand-in for "about p95 of reads" — measure and tune
// with rsmi-loadgen -hedge-delay.
const DefaultHedgeDelay = 2 * time.Millisecond

// HedgedOptions configures a HedgedClient.
type HedgedOptions struct {
	// Delay is how long the first target has to answer before the hedge
	// fires at a second (default DefaultHedgeDelay; ~p95 is the sweet
	// spot — much lower duplicates most reads, much higher stops
	// protecting the tail).
	Delay time.Duration
}

// HedgedClient fans reads over a set of equivalent serving targets
// (primary and replicas) with hedging; writes fail over. It implements
// the same call surface as Client, so callers (rsmi-loadgen) switch
// between the two behind one interface. Safe for concurrent use.
type HedgedClient struct {
	targets []*Client
	delay   time.Duration

	rr     atomic.Uint64
	hedges atomic.Int64
	wins   atomic.Int64
}

// NewHedgedClient builds a hedged client over targets (at least one;
// with exactly one, hedging degenerates to plain calls). The targets
// are owned by the hedged client: Close closes them.
func NewHedgedClient(targets []*Client, o HedgedOptions) *HedgedClient {
	if len(targets) == 0 {
		panic("server: NewHedgedClient needs at least one target")
	}
	if o.Delay <= 0 {
		o.Delay = DefaultHedgeDelay
	}
	return &HedgedClient{targets: targets, delay: o.Delay}
}

// Close closes every target client.
func (h *HedgedClient) Close() {
	for _, c := range h.targets {
		c.Close()
	}
}

// Hedges reports how many hedge requests have been fired (by delay or
// by first-leg failure).
func (h *HedgedClient) Hedges() int64 { return h.hedges.Load() }

// HedgeWins reports how many operations the hedge leg answered first.
func (h *HedgedClient) HedgeWins() int64 { return h.wins.Load() }

// pair picks the next round-robin (first, hedge) target pair; hedge is
// nil with a single target.
func (h *HedgedClient) pair() (*Client, *Client) {
	n := len(h.targets)
	if n == 1 {
		return h.targets[0], nil
	}
	i := int(h.rr.Add(1))
	return h.targets[i%n], h.targets[(i+1)%n]
}

// hedgeResult is one leg's answer.
type hedgeResult[T any] struct {
	v     T
	err   error
	hedge bool
}

// hedged runs do against the first target, fires it at the hedge target
// after the delay (or immediately when the first leg errors), returns
// the first success, and cancels the loser via context.
func hedged[T any](ctx context.Context, h *HedgedClient, do func(ctx context.Context, c *Client) (T, error)) (T, error) {
	first, hedge := h.pair()
	if hedge == nil {
		return do(ctx, first)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // the loser's leg observes this as its cancellation
	ch := make(chan hedgeResult[T], 2)
	launch := func(c *Client, isHedge bool) {
		v, err := do(hctx, c)
		ch <- hedgeResult[T]{v: v, err: err, hedge: isHedge}
	}
	go launch(first, false)
	timer := time.NewTimer(h.delay)
	defer timer.Stop()
	launched, failures := 1, 0
	var firstErr error
	fire := func() {
		h.hedges.Add(1)
		launched = 2
		go launch(hedge, true)
	}
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				if r.hedge {
					h.wins.Add(1)
				}
				return r.v, nil
			}
			failures++
			if firstErr == nil {
				firstErr = r.err
			}
			if launched == 1 {
				// First leg failed before the delay: hedge immediately —
				// failover.
				fire()
				continue
			}
			if failures == launched {
				// Every launched leg failed.
				var zero T
				return zero, firstErr
			}
		case <-timer.C:
			if launched == 1 {
				fire()
			}
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}

// failover runs a write against the first target, retrying once against
// the next on transport errors only (a *StatusError is the server's
// answer — retrying it elsewhere would just repeat it, or worse,
// double-apply).
func failover[T any](ctx context.Context, h *HedgedClient, do func(ctx context.Context, c *Client) (T, error)) (T, error) {
	first, alt := h.pair()
	v, err := do(ctx, first)
	if err == nil || alt == nil || isStatusError(err) || ctx.Err() != nil {
		return v, err
	}
	return do(ctx, alt)
}

// withLegTrace is one leg's answer plus the trace that leg captured.
type withLegTrace[T any] struct {
	v  T
	tj *TraceJSON
}

// hedgedOpt wraps hedged for the QueryOpt verbs: each leg captures its
// own EXPLAIN trace and only the winner's reaches the caller's
// WithExplain destination — two legs racing one destination would be a
// data race.
func hedgedOpt[T any](ctx context.Context, h *HedgedClient, o *queryOpts, do func(ctx context.Context, c *Client, opts ...QueryOpt) (T, error)) (T, error) {
	if o.explain == nil {
		return hedged(ctx, h, func(ctx context.Context, c *Client) (T, error) {
			return do(ctx, c)
		})
	}
	r, err := hedged(ctx, h, func(ctx context.Context, c *Client) (withLegTrace[T], error) {
		var tj *TraceJSON
		v, err := do(ctx, c, WithExplain(&tj))
		return withLegTrace[T]{v: v, tj: tj}, err
	})
	if err != nil {
		var zero T
		return zero, err
	}
	*o.explain = r.tj
	return r.v, nil
}

// failoverOpt is hedgedOpt's write-side twin: per-attempt trace
// capture, the succeeding attempt's trace wins.
func failoverOpt[T any](ctx context.Context, h *HedgedClient, o *queryOpts, do func(ctx context.Context, c *Client, opts ...QueryOpt) (T, error)) (T, error) {
	if o.explain == nil {
		return failover(ctx, h, func(ctx context.Context, c *Client) (T, error) {
			return do(ctx, c)
		})
	}
	r, err := failover(ctx, h, func(ctx context.Context, c *Client) (withLegTrace[T], error) {
		var tj *TraceJSON
		v, err := do(ctx, c, WithExplain(&tj))
		return withLegTrace[T]{v: v, tj: tj}, err
	})
	if err != nil {
		var zero T
		return zero, err
	}
	*o.explain = r.tj
	return r.v, nil
}

// PointQuery reports whether the point is indexed (hedged).
func (h *HedgedClient) PointQuery(ctx context.Context, p geom.Point, opts ...QueryOpt) (bool, error) {
	o := applyQueryOpts(opts)
	return hedgedOpt(ctx, h, &o, func(ctx context.Context, c *Client, qo ...QueryOpt) (bool, error) {
		return c.PointQuery(ctx, p, qo...)
	})
}

// WindowQuery returns the indexed points inside the window (hedged).
func (h *HedgedClient) WindowQuery(ctx context.Context, q geom.Rect, opts ...QueryOpt) ([]geom.Point, error) {
	o := applyQueryOpts(opts)
	return hedgedOpt(ctx, h, &o, func(ctx context.Context, c *Client, qo ...QueryOpt) ([]geom.Point, error) {
		return c.WindowQuery(ctx, q, qo...)
	})
}

// KNN returns up to k nearest neighbours of q (hedged).
func (h *HedgedClient) KNN(ctx context.Context, q geom.Point, k int, opts ...QueryOpt) ([]geom.Point, error) {
	o := applyQueryOpts(opts)
	return hedgedOpt(ctx, h, &o, func(ctx context.Context, c *Client, qo ...QueryOpt) ([]geom.Point, error) {
		return c.KNN(ctx, q, k, qo...)
	})
}

// SQL executes one spatial SQL statement (hedged — SQL is read-only in
// this dialect).
func (h *HedgedClient) SQL(ctx context.Context, query string, opts ...QueryOpt) ([]geom.Point, error) {
	o := applyQueryOpts(opts)
	return hedgedOpt(ctx, h, &o, func(ctx context.Context, c *Client, qo ...QueryOpt) ([]geom.Point, error) {
		return c.SQL(ctx, query, qo...)
	})
}

// Insert adds a point (unhedged; fails over on transport errors).
func (h *HedgedClient) Insert(ctx context.Context, p geom.Point, opts ...QueryOpt) error {
	o := applyQueryOpts(opts)
	_, err := failoverOpt(ctx, h, &o, func(ctx context.Context, c *Client, qo ...QueryOpt) (struct{}, error) {
		return struct{}{}, c.Insert(ctx, p, qo...)
	})
	return err
}

// Delete removes a point (unhedged; fails over on transport errors).
func (h *HedgedClient) Delete(ctx context.Context, p geom.Point, opts ...QueryOpt) (bool, error) {
	o := applyQueryOpts(opts)
	return failoverOpt(ctx, h, &o, func(ctx context.Context, c *Client, qo ...QueryOpt) (bool, error) {
		return c.Delete(ctx, p, qo...)
	})
}

// Batch executes an op list: hedged when every op is a read, failover
// otherwise (a batch with writes must not run twice concurrently).
func (h *HedgedClient) Batch(ctx context.Context, ops []BatchOp, opts ...QueryOpt) ([]BatchResult, error) {
	o := applyQueryOpts(opts)
	readOnly := true
	for _, op := range ops {
		if op.Op == OpInsert || op.Op == OpDelete {
			readOnly = false
			break
		}
	}
	do := func(ctx context.Context, c *Client, qo ...QueryOpt) ([]BatchResult, error) {
		return c.Batch(ctx, ops, qo...)
	}
	if readOnly {
		return hedgedOpt(ctx, h, &o, do)
	}
	return failoverOpt(ctx, h, &o, do)
}
