package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"rsmi"
	"rsmi/internal/geom"
	"rsmi/internal/shard"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code. Spans of one request share Req; Parent is the span that caused
// this one (0 for a request's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// qkey identifies an engine call by its query, so a span recorded inside
// the server can be tied to the caller's request that sent the query.
type qkey struct {
	op int
	r  geom.Rect
	k  int
}

func pointKey(op int, p geom.Point) qkey { return qkey{op: op, r: geom.Rect{MinX: p.X, MinY: p.Y}} }

// binding ties a query in flight to its request and calling span, and
// names the layers that have already recorded a span for it.
type binding struct {
	req, parent uint64
	got         []string
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
	// binds holds the requests in flight per query, oldest first: both
	// callers may send the same query at once.
	binds map[qkey][]*binding
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), binds: map[qkey][]*binding{}}
}

func (t *tracer) id() uint64               { return t.nextID.Add(1) }
func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) bind(k qkey, req, parent uint64) {
	t.mu.Lock()
	t.binds[k] = append(t.binds[k], &binding{req: req, parent: parent})
	t.mu.Unlock()
}

func (t *tracer) unbind(k qkey, req uint64) {
	t.mu.Lock()
	bs := t.binds[k]
	for i, b := range bs {
		if b.req == req {
			bs = append(bs[:i], bs[i+1:]...)
			break
		}
	}
	if len(bs) == 0 {
		delete(t.binds, k)
	} else {
		t.binds[k] = bs
	}
	t.mu.Unlock()
}

// child records a span named name for a call made on behalf of a request
// bound to k: the oldest one that has no such span yet. Two requests in
// flight with the same query each get one span per layer, even though
// which execution served which cannot be told apart. Calls no request is
// waiting on (calibration probes) are not traced.
func (t *tracer) child(k qkey, name string, start, end time.Time) {
	t.mu.Lock()
	for _, b := range t.binds[k] {
		if !slices.Contains(b.got, name) {
			b.got = append(b.got, name)
			t.spans = append(t.spans, span{ID: t.nextID.Add(1), Parent: b.parent, Req: b.req,
				Name: name, Start: t.since(start), End: t.since(end)})
			break
		}
	}
	t.mu.Unlock()
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name   string
	Spans  int
	SelfNS int64
}

// selfTimes returns each layer's self time: its spans' durations minus
// the part of each interval its child spans cover.
func selfTimes(spans []span) []layerTime {
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{Name: s.Name}
			rows[s.Name] = r
		}
		r.Spans++
		r.SelfNS += (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNS > out[j].SelfNS })
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// writeSelfTable prints the self-time table: per layer, its span count,
// total self time and mean self time per request.
func writeSelfTable(w io.Writer, rows []layerTime, requests int64) {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tspans\tself_ms\tself_us_per_req\tshare\t")
	var total int64
	for _, r := range rows {
		total += r.SelfNS
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.2f\t%.3f\t\n", r.Name, r.Spans, float64(r.SelfNS)/1e6,
			float64(r.SelfNS)/1e3/float64(max(requests, 1)), float64(r.SelfNS)/float64(max(total, 1)))
	}
	tw.Flush()
}

// writeSpans writes the spans of one request in every as JSON lines.
func writeSpans(path string, spans []span, every uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if s.Req%every == 0 {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEngine wraps an engine layer and records a span named name for
// every query it executes, while a tracer is set. A coalesced batch
// records one span per query, each covering the whole batch call.
type tracedEngine struct {
	rsmi.Engine
	name string
	tr   *atomic.Pointer[tracer]
}

// NumShards keeps the server's shard reporting working through the
// wrapper.
func (e tracedEngine) NumShards() int {
	if sc, ok := e.Engine.(interface{ NumShards() int }); ok {
		return sc.NumShards()
	}
	return 0
}

func (e tracedEngine) record(start time.Time, keys ...qkey) {
	if t := e.tr.Load(); t != nil {
		end := time.Now()
		for _, k := range keys {
			t.child(k, e.name, start, end)
		}
	}
}

func (e tracedEngine) PointQueryContext(ctx context.Context, q geom.Point) (bool, error) {
	start := time.Now()
	ok, err := e.Engine.PointQueryContext(ctx, q)
	e.record(start, pointKey(opPoint, q))
	return ok, err
}

func (e tracedEngine) WindowQueryContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	start := time.Now()
	pts, err := e.Engine.WindowQueryContext(ctx, q)
	e.record(start, qkey{op: opWindow, r: q})
	return pts, err
}

func (e tracedEngine) WindowQueryAppend(ctx context.Context, dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	start := time.Now()
	pts, err := e.Engine.WindowQueryAppend(ctx, dst, q)
	e.record(start, qkey{op: opWindow, r: q})
	return pts, err
}

func (e tracedEngine) KNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	start := time.Now()
	pts, err := e.Engine.KNNContext(ctx, q, k)
	e.record(start, qkey{op: opKNN, r: geom.Rect{MinX: q.X, MinY: q.Y}, k: k})
	return pts, err
}

func (e tracedEngine) BatchPointQueryContext(ctx context.Context, qs []geom.Point) ([]bool, error) {
	start := time.Now()
	out, err := e.Engine.BatchPointQueryContext(ctx, qs)
	if e.tr.Load() != nil {
		keys := make([]qkey, len(qs))
		for i, q := range qs {
			keys[i] = pointKey(opPoint, q)
		}
		e.record(start, keys...)
	}
	return out, err
}

func (e tracedEngine) BatchWindowQueryContext(ctx context.Context, qs []geom.Rect) ([][]geom.Point, error) {
	start := time.Now()
	out, err := e.Engine.BatchWindowQueryContext(ctx, qs)
	if e.tr.Load() != nil {
		keys := make([]qkey, len(qs))
		for i, q := range qs {
			keys[i] = qkey{op: opWindow, r: q}
		}
		e.record(start, keys...)
	}
	return out, err
}

func (e tracedEngine) BatchKNNContext(ctx context.Context, qs []shard.KNNQuery) ([][]geom.Point, error) {
	start := time.Now()
	out, err := e.Engine.BatchKNNContext(ctx, qs)
	if e.tr.Load() != nil {
		keys := make([]qkey, len(qs))
		for i, q := range qs {
			keys[i] = qkey{op: opKNN, r: geom.Rect{MinX: q.Q.X, MinY: q.Q.Y}, k: q.K}
		}
		e.record(start, keys...)
	}
	return out, err
}

func (e tracedEngine) InsertContext(ctx context.Context, p geom.Point) error {
	start := time.Now()
	err := e.Engine.InsertContext(ctx, p)
	e.record(start, pointKey(opInsert, p))
	return err
}

func (e tracedEngine) DeleteContext(ctx context.Context, p geom.Point) (bool, error) {
	start := time.Now()
	ok, err := e.Engine.DeleteContext(ctx, p)
	e.record(start, pointKey(opDelete, p))
	return ok, err
}
