package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rsmi"
	"rsmi/internal/geom"
	"rsmi/internal/server"
	"rsmi/internal/sqlfe"
)

// target is how one caller reaches the engine: library calls or a client.
type target interface {
	point(ctx context.Context, p geom.Point) (bool, error)
	window(ctx context.Context, r geom.Rect) ([]geom.Point, error)
	knn(ctx context.Context, p geom.Point, k int) ([]geom.Point, error)
	sql(ctx context.Context, q string) ([]geom.Point, error)
	insert(ctx context.Context, p geom.Point) error
	del(ctx context.Context, p geom.Point) (bool, error)
	close()
}

type engineTarget struct{ e rsmi.Engine }

func (t engineTarget) point(ctx context.Context, p geom.Point) (bool, error) {
	return t.e.PointQueryContext(ctx, p)
}
func (t engineTarget) window(ctx context.Context, r geom.Rect) ([]geom.Point, error) {
	return t.e.WindowQueryContext(ctx, r)
}
func (t engineTarget) knn(ctx context.Context, p geom.Point, k int) ([]geom.Point, error) {
	return t.e.KNNContext(ctx, p, k)
}
func (t engineTarget) sql(context.Context, string) ([]geom.Point, error) {
	return nil, errors.New("embedded engine takes no SQL")
}
func (t engineTarget) insert(ctx context.Context, p geom.Point) error {
	return t.e.InsertContext(ctx, p)
}
func (t engineTarget) del(ctx context.Context, p geom.Point) (bool, error) {
	return t.e.DeleteContext(ctx, p)
}
func (t engineTarget) close() {}

type clientTarget struct{ c *server.Client }

func (t clientTarget) point(ctx context.Context, p geom.Point) (bool, error) {
	return t.c.PointQuery(ctx, p)
}
func (t clientTarget) window(ctx context.Context, r geom.Rect) ([]geom.Point, error) {
	return t.c.WindowQuery(ctx, r)
}
func (t clientTarget) knn(ctx context.Context, p geom.Point, k int) ([]geom.Point, error) {
	return t.c.KNN(ctx, p, k)
}
func (t clientTarget) sql(ctx context.Context, q string) ([]geom.Point, error) {
	return t.c.SQL(ctx, q)
}
func (t clientTarget) insert(ctx context.Context, p geom.Point) error      { return t.c.Insert(ctx, p) }
func (t clientTarget) del(ctx context.Context, p geom.Point) (bool, error) { return t.c.Delete(ctx, p) }
func (t clientTarget) close()                                              { t.c.Close() }

// clientTimeout bounds one request; a request slower than this fails.
const clientTimeout = 10 * time.Second

func newTarget(sp spec, d *deployment) target {
	switch sp.serving {
	case stream:
		return clientTarget{server.NewClient(d.srv.streamAddr, server.WithTransport(server.TransportTCP),
			server.WithStreamConns(1), server.WithTimeout(clientTimeout))}
	case httpJSON:
		return clientTarget{server.NewClient(d.srv.httpAddr, server.WithTimeout(clientTimeout))}
	}
	return engineTarget{d.engine}
}

// Latency classes.
const (
	clsPoint = iota
	clsWindow
	clsKNN
	clsSQL
	clsWrite
	numClasses
)

var classOf = [numOps]int{opPoint: clsPoint, opWindow: clsWindow, opKNN: clsKNN, opSQL: clsSQL,
	opInsert: clsWrite, opDelete: clsWrite}

// tally is what a phase of the load measured.
type tally struct {
	lat [numClasses][]int64 // ns per completed op
	// seg holds the segment of the load phase each op of lat was issued
	// in, and segOps the ops completed per segment.
	seg               [numClasses][]uint8
	segOps            [numSegments]int64
	attempted, failed int64
	winHit, winWant   int64
	knnHit, knnWant   int64
	sqlHit, sqlWant   int64
	errs              []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) completed() int64 {
	var n int64
	for _, l := range t.lat {
		n += int64(len(l))
	}
	return n
}

// addCounts adds o's operation counts and errors to t.
func (t *tally) addCounts(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// merge adds all of o to t.
func (t *tally) merge(o *tally) {
	for c := range t.lat {
		t.lat[c] = append(t.lat[c], o.lat[c]...)
		t.seg[c] = append(t.seg[c], o.seg[c]...)
	}
	for i, n := range o.segOps {
		t.segOps[i] += n
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.winHit += o.winHit
	t.winWant += o.winWant
	t.knnHit += o.knnHit
	t.knnWant += o.knnWant
	t.sqlHit += o.sqlHit
	t.sqlWant += o.sqlWant
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// writes is one caller's write history on one deployment.
type writes struct {
	live []geom.Point // acknowledged inserts not yet deleted, oldest first
	head int
	gone []geom.Point // acknowledged deletes
}

// caller is one closed-loop client: it sends its next operation only
// after the previous one is answered and checked.
type caller struct {
	id   int
	rng  *rand.Rand
	tgs  []target     // one per deployment
	pool []geom.Point // this caller's insert points
	next int
	ws   []*writes // one per deployment
	req  uint64    // requests sent, for span request ids
}

// runner runs a workload's callers against its deployments.
type runner struct {
	sp      spec
	in      *inputs
	orc     *oracle
	callers []*caller
	// logs holds each deployment's pool log, by which answers holding
	// inserted points are judged.
	logs []*poolLog
	// callSpan names the span around the call into the first layer.
	callSpan string
	// start and segLen place each op in a segment of the running phase;
	// set before the callers start.
	start  time.Time
	segLen time.Duration
}

// numSegments is how many equal segments a load phase is cut into.
// Segment i drives deployment i mod len(deployments); each end-to-end
// metric is a median over a deployment's segments, averaged over the
// deployments. A burst of outside load that hits one segment does not
// move it, and the model-to-model spread of RSMI is averaged over
// several independently trained models.
const numSegments = 12

func newRunner(sp spec, in *inputs, pool []geom.Point, orc *oracle, deps []*deployment, seed int64) *runner {
	dr := &runner{sp: sp, in: in, orc: orc, callSpan: "shard"}
	if sp.serving != embedded {
		dr.callSpan = "client"
	}
	for range deps {
		dr.logs = append(dr.logs, newPoolLog(time.Now(), len(in.pool)))
	}
	share := len(pool) / sp.callers
	for i := 0; i < sp.callers; i++ {
		c := &caller{
			id:   i,
			rng:  rand.New(rand.NewSource(seed*1000003 + int64(i) + 17)),
			pool: pool[i*share : (i+1)*share],
		}
		for _, d := range deps {
			c.tgs = append(c.tgs, newTarget(sp, d))
			c.ws = append(c.ws, &writes{})
		}
		dr.callers = append(dr.callers, c)
	}
	return dr
}

func (dr *runner) close() {
	for _, c := range dr.callers {
		for _, tg := range c.tgs {
			tg.close()
		}
	}
}

// cushionInserts is how many points each writing caller inserts into
// each deployment before the load starts, so its deletes rarely find
// nothing of its own to delete.
const cushionInserts = 32

// prime inserts each writing caller's cushion.
func (dr *runner) prime(ctx context.Context, t *tally) {
	if dr.sp.mix[opInsert] == 0 {
		return
	}
	for _, c := range dr.callers {
		for dep := range c.tgs {
			for i := 0; i < cushionInserts; i++ {
				dr.step(ctx, c, dep, 0, opInsert, t, nil)
			}
		}
	}
}

// run drives every caller for d and returns the merged tally and the
// wall time of the phase. A non-nil tracer records spans.
func (dr *runner) run(ctx context.Context, d time.Duration, tr *tracer) (*tally, time.Duration) {
	tallies := make([]*tally, len(dr.callers))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	dr.start, dr.segLen = start, max(d/numSegments, 1)
	for i, c := range dr.callers {
		tallies[i] = &tally{}
		wg.Add(1)
		go func(c *caller, t *tally) {
			defer wg.Done()
			for now := time.Now(); now.Before(deadline); now = time.Now() {
				seg := min(int(now.Sub(start)/dr.segLen), numSegments-1)
				dr.step(ctx, c, seg%len(c.tgs), seg, dr.pick(c.rng), t, tr)
			}
		}(c, tallies[i])
	}
	wg.Wait()
	wall := time.Since(start)
	for _, t := range tallies[1:] {
		tallies[0].merge(t)
	}
	return tallies[0], wall
}

func (dr *runner) pick(rng *rand.Rand) int {
	r := rng.Intn(100)
	for op, w := range dr.sp.mix {
		if r < w {
			return op
		}
		r -= w
	}
	return opPoint
}

// step issues one operation to deployment dep, times the call, and checks
// the answer; seg is the segment of the phase the op belongs to.
func (dr *runner) step(ctx context.Context, c *caller, dep, seg, op int, t *tally, tr *tracer) {
	in, tg, w := dr.in, c.tgs[dep], c.ws[dep]
	if op == opDelete && w.head == len(w.live) {
		op = opInsert // nothing of this caller's own is live to delete
	}
	if op == opInsert && c.next == len(c.pool) {
		op = opPoint // insert pool exhausted
	}
	t.attempted++
	c.req++

	// Pick the query and its key before the clock starts.
	var (
		wi, ki int
		p      geom.Point
		st     sqlStmt
		key    qkey
	)
	switch op {
	case opPoint:
		p = in.pointQs[c.rng.Intn(len(in.pointQs))]
		key = pointKey(opPoint, p)
	case opWindow:
		wi = c.rng.Intn(len(in.windows))
		key = qkey{op: opWindow, r: in.windows[wi]}
	case opKNN:
		ki = c.rng.Intn(len(in.knnQs))
		p = in.knnQs[ki]
		key = qkey{op: opKNN, r: geom.Rect{MinX: p.X, MinY: p.Y}, k: knnK}
	case opSQL:
		st = in.sqls[c.rng.Intn(len(in.sqls))]
		if st.kind == sqlKNN {
			q := in.knnQs[st.idx]
			key = qkey{op: opKNN, r: geom.Rect{MinX: q.X, MinY: q.Y}, k: knnK}
		} else {
			key = qkey{op: opWindow, r: in.windows[st.idx]}
		}
	case opInsert:
		p = c.pool[c.next]
		c.next++
		key = pointKey(opInsert, p)
	case opDelete:
		p = w.live[w.head]
		w.head++
		key = pointKey(opDelete, p)
	}

	var reqID, rootID, callID uint64
	var opStart time.Time
	if tr != nil {
		reqID = uint64(c.id)<<48 | c.req
		rootID, callID = tr.id(), tr.id()
		opStart = time.Now()
		tr.bind(key, reqID, callID)
	}

	pl := dr.logs[dep]
	if op == opInsert {
		pl.ins[dr.orc.stored[p]-1].Store(pl.now())
	}
	var (
		found bool
		pts   []geom.Point
		err   error
	)
	t0 := time.Now()
	switch op {
	case opPoint:
		found, err = tg.point(ctx, p)
	case opWindow:
		pts, err = tg.window(ctx, in.windows[wi])
	case opKNN:
		pts, err = tg.knn(ctx, p, knnK)
	case opSQL:
		pts, err = tg.sql(ctx, st.text)
	case opInsert:
		err = tg.insert(ctx, p)
	case opDelete:
		found, err = tg.del(ctx, p)
	}
	t1 := time.Now()
	if tr != nil {
		tr.unbind(key, reqID)
		tr.add(span{ID: callID, Parent: rootID, Req: reqID, Name: dr.callSpan,
			Start: tr.since(t0), End: tr.since(t1)})
	}

	if op == opDelete && err == nil && found {
		pl.del[dr.orc.stored[p]-1].Store(pl.now())
	}
	f := &inFlight{log: pl, sent: t0.Sub(pl.epoch).Nanoseconds(), back: t1.Sub(pl.epoch).Nanoseconds()}
	if dr.checkOp(w, op, t, err, found, pts, p, wi, ki, st, f) {
		cls := classOf[op]
		t.lat[cls] = append(t.lat[cls], t1.Sub(t0).Nanoseconds())
		t.seg[cls] = append(t.seg[cls], uint8(seg))
		t.segOps[seg]++
	}
	if tr != nil {
		tr.add(span{ID: rootID, Req: reqID, Name: "caller", Start: tr.since(opStart), End: tr.since(time.Now())})
	}
}

// checkOp checks one answer, which was in flight during f, and does the
// caller's write bookkeeping. It reports whether the operation completed
// correctly.
func (dr *runner) checkOp(w *writes, op int, t *tally, err error, found bool, pts []geom.Point,
	p geom.Point, wi, ki int, st sqlStmt, f *inFlight) bool {
	in, orc := dr.in, dr.orc
	if err != nil {
		t.fail("%s: %v", opNames[op], err)
		return false
	}
	var v verdict
	switch op {
	case opPoint:
		if !found {
			t.fail("point query missed stored point %v", p)
			return false
		}
		return true
	case opInsert:
		w.live = append(w.live, p)
		return true
	case opDelete:
		if !found {
			t.fail("delete of acknowledged insert %v found nothing", p)
			return false
		}
		w.gone = append(w.gone, p)
		return true
	case opWindow:
		v = orc.checkWindow(in.windows[wi], pts, orc.windows[wi], f)
		t.winHit += int64(v.hits)
		t.winWant += int64(v.want)
	case opKNN:
		v = orc.checkKNN(in.knnQs[ki], knnK, pts, orc.knn[ki], f)
		t.knnHit += int64(v.hits)
		t.knnWant += int64(v.want)
	case opSQL:
		switch st.kind {
		case sqlWindow:
			v = orc.checkWindow(in.windows[st.idx], pts, orc.windows[st.idx], f)
		case sqlOrdered:
			v = orc.checkOrdered(st, in.windows[st.idx], pts, orc.windows[st.idx])
		case sqlKNN:
			v = orc.checkKNN(in.knnQs[st.idx], knnK, pts, orc.knn[st.idx], f)
		}
		t.sqlHit += int64(v.hits)
		t.sqlWant += int64(v.want)
	}
	if !v.ok {
		t.fail("%s: %s", opNames[op], v.why)
		return false
	}
	return true
}

// audit checks, after the load, that on every deployment each
// acknowledged insert still live is found and each acknowledged delete is
// gone.
func (dr *runner) audit(ctx context.Context, t *tally) {
	for _, c := range dr.callers {
		for dep, w := range c.ws {
			for _, p := range w.live[w.head:] {
				t.attempted++
				if ok, err := c.tgs[dep].point(ctx, p); err != nil || !ok {
					t.fail("audit: acknowledged insert %v not found (err %v)", p, err)
				}
			}
			for _, p := range w.gone {
				t.attempted++
				if ok, err := c.tgs[dep].point(ctx, p); err != nil || ok {
					t.fail("audit: acknowledged delete %v still found (err %v)", p, err)
				}
			}
		}
	}
}

// settled returns the in-flight time of a query sent to deployment dep
// after the load has stopped: every acknowledged write is in force.
func (dr *runner) settled(dep int) *inFlight {
	pl := dr.logs[dep]
	now := pl.now()
	return &inFlight{log: pl, sent: now, back: now}
}

// checkSQLParses fails fast when a generated statement does not parse:
// that is a benchmark bug, not a program failure.
func checkSQLParses(sqls []sqlStmt) error {
	for _, s := range sqls {
		if _, err := sqlfe.Parse(s.text); err != nil {
			return fmt.Errorf("generated SQL %q: %w", s.text, err)
		}
	}
	return nil
}
