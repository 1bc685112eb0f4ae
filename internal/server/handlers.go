package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/obs"
	"rsmi/internal/plan"
	"rsmi/internal/shard"
	"rsmi/internal/sqlfe"
)

// maxBodyBytes bounds single-op request bodies; batch bodies get
// maxBatchBodyBytes.
const (
	maxBodyBytes      = 4 << 10
	maxBatchBodyBytes = 8 << 20
	// maxBatchOps bounds the operations one /v1/batch request may carry.
	maxBatchOps = 16384
)

// opBatch labels /v1/batch — and multi-op stream frames — in traces,
// /v1/stats and /metrics.
const opBatch = "batch"

// admitSlot acquires an in-flight slot, counting a shed when the server
// is saturated. It is the transport-neutral admission gate; both the
// HTTP and stream paths go through it. It returns a release func and
// whether the request was admitted.
func (s *Server) admitSlot() (func(), bool) {
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return func() {
			s.inFlight.Add(-1)
			<-s.sem
		}, true
	default:
		s.shed.Add(1)
		return nil, false
	}
}

// admit is admitSlot for HTTP handlers: shed requests are answered 429.
func (s *Server) admit(w http.ResponseWriter) (func(), bool) {
	release, ok := s.admitSlot()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server saturated; retry")
	}
	return release, ok
}

// queryExplain reports whether an HTTP request opted into an inline
// EXPLAIN trace via ?explain=1 (or ?explain=true). The RawQuery check
// keeps URL parsing off the common path.
//
//rsmi:noalloc
func queryExplain(r *http.Request) bool {
	if r.URL.RawQuery == "" {
		return false
	}
	switch r.URL.Query().Get("explain") {
	case "1", "true":
		return true
	}
	return false
}

// startHTTPTrace starts a trace for an HTTP request when it asked for
// EXPLAIN or the sampler picked it. The untraced hot path returns
// (nil, false) after two cheap checks and allocates nothing.
//
//rsmi:noalloc
func (s *Server) startHTTPTrace(r *http.Request, op string) (*obs.Trace, bool) {
	explain := queryExplain(r)
	if !explain && !s.cfg.Observer.ShouldTrace() {
		return nil, false
	}
	tr := obs.StartTrace(op, "http")
	tr.Backend = s.eng.Name()
	tr.Explain = explain
	return tr, explain
}

// upgradeExplain handles the rsmibin explain flag bit, which is only
// known once the body is decoded: an already-traced request is marked
// Explain; an untraced one gets a late trace whose admission and decode
// spans are simply absent (they were not measured).
func (s *Server) upgradeExplain(tr *obs.Trace, op string) *obs.Trace {
	if tr == nil {
		tr = obs.StartTrace(op, "http")
		tr.Backend = s.eng.Name()
	}
	tr.Explain = true
	return tr
}

// traceJSON snapshots tr into its wire form; the caller serialises it
// before Observer.Finish releases tr to the pool.
//
//rsmi:noalloc
func traceJSON(tr *obs.Trace) *TraceJSON {
	if tr == nil {
		return nil
	}
	tj := &TraceJSON{
		ID:            tr.ID,
		Backend:       tr.Backend,
		ShardsVisited: tr.Shards(),
		BlockAccesses: tr.Accesses(),
		CoalesceBatch: tr.BatchSize(),
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if ns := tr.StageNS(st); ns > 0 {
			tj.Stages = append(tj.Stages, TraceStageJSON{Stage: st.String(), Us: float64(ns) / 1e3})
		}
	}
	if p := tr.Plan(); p != nil {
		tj.Plan = &PlanJSON{
			Backend:      p.Backend,
			EstCostUS:    p.EstCostUS,
			ActualCostUS: p.ActualCostUS,
			EstRows:      p.EstRows,
		}
	}
	return tj
}

// decodeBody decodes one JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}, limit int64) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// decodeRequest is the HTTP codec's decode step: it decodes a body in
// either wire protocol into req — exactly one op (whose kind must match
// the endpoint's) for the per-op endpoints, a list for /v1/batch.
// explain reports whether the rsmibin explain flag bit was set (always
// false for JSON bodies, which opt in via ?explain=1 instead). Error
// responses are always JSON, whatever the request encoding.
func decodeRequest(w http.ResponseWriter, r *http.Request, req *request, endpoint string, limit int64) (explain, ok bool) {
	req.batch = endpoint == opBatch
	if isBinaryRequest(r) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST required")
			return false, false
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return false, false
		}
		req.ops, explain, err = decodeBinaryOps(body, !req.batch)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return false, false
		}
		if !req.batch && req.ops[0].Op != endpoint {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("rsmibin: op %q sent to the %s endpoint", req.ops[0].Op, endpoint))
			return false, false
		}
		return explain, true
	}
	if req.batch {
		var body BatchRequest
		ok = decodeBody(w, r, &body, limit)
		req.ops = body.Ops
		return false, ok
	}
	// JSON per-op bodies keep their historical shapes (PointJSON,
	// RectJSON, KNNJSON, SQLRequest); fold them into the shared op struct.
	op := BatchOp{Op: endpoint}
	switch endpoint {
	case OpWindow:
		var body RectJSON
		ok = decodeBody(w, r, &body, limit)
		op.MinX, op.MinY, op.MaxX, op.MaxY = body.MinX, body.MinY, body.MaxX, body.MaxY
	case OpKNN:
		var body KNNJSON
		ok = decodeBody(w, r, &body, limit)
		op.X, op.Y, op.K = body.X, body.Y, body.K
	case OpSQL:
		var body SQLRequest
		ok = decodeBody(w, r, &body, limit)
		op.SQL = body.Query
	default:
		var body PointJSON
		ok = decodeBody(w, r, &body, limit)
		op.X, op.Y = body.X, body.Y
	}
	req.ops = []BatchOp{op}
	return false, ok
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The response is already partially written; nothing to recover.
		_ = err
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: msg})
}

// statusClientClosedRequest is the (nginx-convention) status for a query
// abandoned because its client disconnected. The response is rarely
// observable — the connection is gone — but the code keeps the stats and
// logs honest.
const statusClientClosedRequest = 499

// engineErrorCode maps an engine execution error to an HTTP status:
// a forwarded write that failed on the primary keeps the primary's
// status (*StatusError, replica role), a SQL parse error is the
// client's fault (400), deadline-exceeded means the server ran out of
// time (504), cancellation means the client went away (499), anything
// else is a server fault.
func engineErrorCode(err error) int {
	var se *StatusError
	var pe *sqlfe.ParseError
	switch {
	case errors.As(err, &se):
		return se.Code
	case errors.As(err, &pe):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeEngineError answers a failed engine execution.
func writeEngineError(w http.ResponseWriter, err error) {
	writeError(w, engineErrorCode(err), err.Error())
}

// finite rejects NaN/Inf coordinates, which would corrupt shard routing.
func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return errors.New("coordinates must be finite")
		}
	}
	return nil
}

// checkRect rejects a window with non-finite or inverted bounds.
func checkRect(r geom.Rect) error {
	if err := finite(r.MinX, r.MinY, r.MaxX, r.MaxY); err != nil {
		return err
	}
	if r.MinX > r.MaxX || r.MinY > r.MaxY {
		return errors.New("window has min > max")
	}
	return nil
}

// checkK bounds a kNN k on every codec at binMaxK, the bound rsmibin's
// decoder already enforces, so no engine sizes its candidate buffers
// from an absurd k.
func checkK(k int) error {
	if k > binMaxK {
		return fmt.Errorf("k %d exceeds %d", k, binMaxK)
	}
	return nil
}

// rect is the op's window (min_x…max_y).
func (op *BatchOp) rect() geom.Rect {
	return geom.Rect{MinX: op.MinX, MinY: op.MinY, MaxX: op.MaxX, MaxY: op.MaxY}
}

func toPoints(pts []geom.Point) []PointJSON {
	out := make([]PointJSON, len(pts))
	for i, p := range pts {
		out[i] = PointJSON{X: p.X, Y: p.Y}
	}
	return out
}

// request is one decoded data-plane request, whatever its transport: a
// single op, or a batch (a /v1/batch body or a multi-op stream frame).
// Every codec decodes into it, validates it, hands it to execute, and
// encodes its answers.
type request struct {
	ops []BatchOp
	// batch runs ops through executeBatch and observes the batch
	// histogram; otherwise ops holds exactly one op.
	batch bool
	// query is a sql op's statement, parsed once by validate.
	query plan.Query
	// answer (single op) or answers (batch, in request order) hold what
	// execute produced.
	answer  batchAnswer
	answers []batchAnswer
}

// validate checks every op before anything executes. Errors of a framed
// request — a /v1/batch body, or any stream frame, where a single op
// rides as a batch of one — name the offending entry.
func (req *request) validate(framed bool) error {
	if req.batch && len(req.ops) > maxBatchOps {
		return fmt.Errorf("batch exceeds %d ops", maxBatchOps)
	}
	for i := range req.ops {
		if err := req.validateOp(&req.ops[i]); err != nil {
			if framed {
				return fmt.Errorf("op %d: %v", i, err)
			}
			return err
		}
	}
	return nil
}

// validateOp checks one op; a sql op's parsed statement is kept in
// req.query for execute.
func (req *request) validateOp(op *BatchOp) error {
	switch op.Op {
	case OpPoint, OpInsert, OpDelete:
		return finite(op.X, op.Y)
	case OpKNN:
		if err := finite(op.X, op.Y); err != nil {
			return err
		}
		return checkK(op.K)
	case OpWindow:
		return checkRect(op.rect())
	case OpSQL:
		// A SQL statement is its own batch of work: it rides /v1/sql or
		// a single-op stream frame, never a multi-op batch.
		if len(req.ops) > 1 {
			return errors.New("sql is not allowed inside a multi-op batch")
		}
		q, err := sqlfe.Parse(op.SQL)
		if err != nil {
			return err
		}
		req.query = q
		if q.Kind == plan.KindKNN {
			return checkK(q.K)
		}
		return nil
	case OpSub, OpUnsub:
		// Standing queries exist only as single-op stream frames (the
		// stream path dispatches them before validation): the push
		// channel is the connection itself, so there is nothing for HTTP
		// — or a multi-op batch — to subscribe.
		return errors.New("sub/unsub ride only single-op stream frames")
	}
	return fmt.Errorf("unknown op %q", op.Op)
}

// execute runs one validated request; it is the single executor behind
// every transport. A single query rides the request coalescers (so
// concurrent single-op requests micro-batch), a single write runs on the
// engine, a sql op is planned and run by executeSQL, and a batch runs
// through executeBatch. It observes the op's — or the batch's —
// histogram in transport t's column, and the execute stage on tr.
//
// ctx is the request's context: the engine observes it between shard
// visits, and the coalescers run each micro-batch under the earliest
// deadline of its members.
func (s *Server) execute(ctx context.Context, req *request, t transportIdx, tr *obs.Trace) (err error) {
	if req.batch {
		req.answers, err = s.executeBatch(ctx, req.ops, t, tr)
		return err
	}
	op := &req.ops[0]
	start := time.Now()
	if op.Op == OpSQL {
		// executeSQL observes the plan and execute stages itself.
		req.answer.op = OpSQL
		if req.answer.pts, err = s.executeSQL(ctx, &req.query, tr); err != nil {
			return err
		}
		s.observeOp(opIdxSQL, t, time.Since(start))
		return nil
	}
	if req.answer, err = s.runOp(ctx, op, tr); err != nil {
		return err
	}
	d := time.Since(start)
	s.observeOp(opIndex(op.Op), t, d)
	tr.ObserveStage(obs.StageExecute, d)
	return nil
}

// runOp executes one point, window, knn, insert or delete op: queries
// through their coalescer, writes directly on the engine.
func (s *Server) runOp(ctx context.Context, op *BatchOp, tr *obs.Trace) (a batchAnswer, err error) {
	a.op = op.Op
	p := geom.Pt(op.X, op.Y)
	switch op.Op {
	case OpPoint:
		a.flag, err = query(ctx, s, s.coPoint, p, op, tr, s.eng.PointQueryContext)
	case OpWindow:
		a.pts, err = query(ctx, s, s.coWindow, op.rect(), op, tr, s.eng.WindowQueryContext)
	case OpKNN:
		a.pts, err = query(ctx, s, s.coKNN, shard.KNNQuery{Q: p, K: op.K}, op, tr, s.knn)
	case OpInsert:
		a.flag, err = engineCall(ctx, s, tr, s.insert, p)
	case OpDelete:
		a.flag, err = engineCall(ctx, s, tr, s.eng.DeleteContext, p)
	}
	return a, err
}

// knn and insert give the engine's KNN and Insert calls the shape
// engineCall takes.
func (s *Server) knn(ctx context.Context, q shard.KNNQuery) ([]geom.Point, error) {
	return s.eng.KNNContext(ctx, q.Q, q.K)
}

func (s *Server) insert(ctx context.Context, p geom.Point) (bool, error) {
	return true, s.eng.InsertContext(ctx, p)
}

// query runs op, a single-query read, through its coalescer when
// coalescing is enabled and the planner lets it ride, else directly on
// the engine.
func query[Q, R any](ctx context.Context, s *Server, co *coalescer[Q, R], q Q, op *BatchOp, tr *obs.Trace, direct func(context.Context, Q) (R, error)) (R, error) {
	if co != nil {
		if batchCap, ride := s.planRide(op); ride {
			return co.do(ctx, q, tr, batchCap)
		}
	}
	return engineCall(ctx, s, tr, direct, q)
}

// planRide lets the planner (plan.MultiEngine.PlanHint), when the engine
// plans, decide ride-the-batch versus direct for a window or kNN op: a
// cheap query amortises in a micro-batch of the hinted size (batchCap),
// an expensive scan would stall its batch peers for no amortisation win.
// An empty plan (uncalibrated stats) rides — bypassing is the planner
// speaking, not the default. Points always ride.
func (s *Server) planRide(op *BatchOp) (batchCap int, ride bool) {
	var q plan.Query
	switch {
	case s.hinter == nil || op.Op == OpPoint:
		return 0, true
	case op.Op == OpWindow:
		q = plan.Query{Kind: plan.KindWindow, Window: op.rect()}
	default:
		q = plan.Query{Kind: plan.KindKNN, Point: geom.Pt(op.X, op.Y), K: op.K}
	}
	if pl := s.hinter.PlanHint(q); pl.Coalesce || pl.Backend == "" {
		return pl.Batch, true
	}
	s.planBypass.Add(1)
	return 0, false
}

// engineCall runs one engine call outside the coalescers. A non-nil tr
// rides the engine context (so the shard fan-out can count shards
// visited), and the call is bracketed with the engine's block-access
// counter.
func engineCall[Q, R any](ctx context.Context, s *Server, tr *obs.Trace, call func(context.Context, Q) (R, error), q Q) (R, error) {
	if tr == nil {
		return call(ctx, q)
	}
	before := s.eng.Accesses()
	r, err := call(obs.With(ctx, tr), q)
	tr.AddAccesses(s.eng.Accesses() - before)
	return r, err
}

// opIndex maps an op name to its histogram row.
func opIndex(op string) opIdx {
	for i, name := range opIdxName {
		if name == op {
			return opIdx(i)
		}
	}
	return opIdxBatch
}

// executeBatch runs a validated heterogeneous operation list with one
// engine batch call per query kind: queries are grouped by kind, executed
// via the engine's Batch*Context calls (writes run individually, in
// request order relative to each other), and the answers are reassembled
// in request order. It observes the batch histogram of the calling
// transport and the execute span on tr. A batch is not a transaction:
// its queries may observe the batch's own writes or concurrent writers'.
//
// A batch whose client disconnects or whose deadline passes stops
// between engine calls (and, on Sharded, between shard visits inside
// one) and returns the context's error — writes already applied stay
// applied, exactly as a batch interleaved with a concurrent writer's
// operations would.
func (s *Server) executeBatch(ctx context.Context, ops []BatchOp, t transportIdx, tr *obs.Trace) ([]batchAnswer, error) {
	start := time.Now()
	answers, err := engineCall(ctx, s, tr, s.runBatch, ops)
	if err != nil {
		return nil, err
	}
	d := time.Since(start)
	s.observeOp(opIdxBatch, t, d)
	tr.ObserveStage(obs.StageExecute, d)
	return answers, nil
}

// runBatch is executeBatch's engine work.
func (s *Server) runBatch(ctx context.Context, ops []BatchOp) ([]batchAnswer, error) {
	answers := make([]batchAnswer, len(ops))
	var (
		points   []geom.Point
		pointIdx []int
		windows  []geom.Rect
		winIdx   []int
		knns     []shard.KNNQuery
		knnIdx   []int
	)
	for i := range ops {
		op := &ops[i]
		answers[i].op = op.Op
		switch op.Op {
		case OpPoint:
			points = append(points, geom.Pt(op.X, op.Y))
			pointIdx = append(pointIdx, i)
		case OpWindow:
			windows = append(windows, op.rect())
			winIdx = append(winIdx, i)
		case OpKNN:
			knns = append(knns, shard.KNNQuery{Q: geom.Pt(op.X, op.Y), K: op.K})
			knnIdx = append(knnIdx, i)
		case OpInsert:
			if err := s.eng.InsertContext(ctx, geom.Pt(op.X, op.Y)); err != nil {
				return nil, err
			}
			answers[i].flag = true
		case OpDelete:
			deleted, err := s.eng.DeleteContext(ctx, geom.Pt(op.X, op.Y))
			if err != nil {
				return nil, err
			}
			answers[i].flag = deleted
		case OpSQL:
			// validate keeps SQL out of multi-op batches and a single-op
			// SQL stream frame is no batch, so the only way here is a
			// one-op /v1/batch request — point it at /v1/sql.
			return nil, &StatusError{Code: http.StatusBadRequest, Msg: "sql is not served by /v1/batch; use /v1/sql"}
		}
	}
	if len(points) > 0 {
		found, err := s.eng.BatchPointQueryContext(ctx, points)
		if err != nil {
			return nil, err
		}
		for j, f := range found {
			answers[pointIdx[j]].flag = f
		}
	}
	if len(windows) > 0 {
		wins, err := s.eng.BatchWindowQueryContext(ctx, windows)
		if err != nil {
			return nil, err
		}
		for j, pts := range wins {
			answers[winIdx[j]].pts = pts
		}
	}
	if len(knns) > 0 {
		nns, err := s.eng.BatchKNNContext(ctx, knns)
		if err != nil {
			return nil, err
		}
		for j, pts := range nns {
			answers[knnIdx[j]].pts = pts
		}
	}
	return answers, nil
}

// plannerEngine is the planning surface the SQL endpoint prefers,
// implemented by plan.MultiEngine (rsmi-serve -planner): the query is
// planned first — so EXPLAIN can time the plan stage on its own — then
// executed on the backend the cost models chose. Fixed-backend servers
// execute SQL directly on their engine instead.
type plannerEngine interface {
	PlanQuery(q plan.Query) plan.Plan
	ExecPlanned(ctx context.Context, pl plan.Plan, q plan.Query) (plan.Result, error)
	PlannerStats() plan.Counters
}

// planHinter is the advisory planning surface the single-query read
// paths consult before riding the coalescer (plan.MultiEngine.PlanHint):
// the plan's Coalesce/Batch hints steer the micro-batcher without the
// counter side effects of a full PlanQuery. Cached on the Server at
// construction so the hot path pays no type assertion.
type planHinter interface {
	PlanHint(q plan.Query) plan.Plan
}

// executeSQL runs one parsed SQL query and records the plan decision —
// chosen backend, estimated vs actual cost — on the trace for EXPLAIN.
// It observes the plan and execute stages itself (the two are disjoint,
// like executeBatch's execute span).
func (s *Server) executeSQL(ctx context.Context, q *plan.Query, tr *obs.Trace) ([]geom.Point, error) {
	if pe, ok := s.eng.(plannerEngine); ok {
		pstart := time.Now()
		pl := pe.PlanQuery(*q)
		tr.MarkSince(pstart, obs.StagePlan)
		res, err := engineCall(ctx, s, tr, func(ctx context.Context, q plan.Query) (plan.Result, error) {
			return pe.ExecPlanned(ctx, pl, q)
		}, *q)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.ObserveStage(obs.StageExecute, time.Duration(res.ActualUS*1e3))
			tr.SetPlan(obs.PlanInfo{
				Backend:      res.Plan.Backend,
				EstCostUS:    res.Plan.EstCostUS,
				ActualCostUS: res.ActualUS,
				EstRows:      res.Plan.EstRows,
			})
		}
		return res.Points, nil
	}
	// Fixed backend: a degenerate plan — everything routes to the one
	// engine, with no cost estimate. Queries ride runOp like single-op
	// requests, so concurrent SQL still micro-batches.
	start := time.Now()
	op := BatchOp{Op: OpPoint, X: q.Point.X, Y: q.Point.Y}
	switch q.Kind {
	case plan.KindWindow:
		op = BatchOp{Op: OpWindow, MinX: q.Window.MinX, MinY: q.Window.MinY, MaxX: q.Window.MaxX, MaxY: q.Window.MaxY}
	case plan.KindKNN:
		op.Op, op.K = OpKNN, q.K
	}
	a, err := s.runOp(ctx, &op, tr)
	if err != nil {
		return nil, err
	}
	pts := a.pts
	switch q.Kind {
	case plan.KindPoint:
		if a.flag {
			pts = []geom.Point{q.Point}
		}
	case plan.KindWindow:
		pts = plan.FinishWindow(*q, a.pts)
	}
	if tr != nil {
		d := time.Since(start)
		tr.ObserveStage(obs.StageExecute, d)
		tr.SetPlan(obs.PlanInfo{Backend: s.eng.Name(), ActualCostUS: float64(d.Nanoseconds()) / 1e3})
	}
	return pts, nil
}

// encodeTraced runs a request's encode step: write sends the answer,
// carrying tj — the inline EXPLAIN trace, nil unless explain — and the
// encode span lands on tr. An EXPLAIN request closes the span before
// the trace is snapshotted into its own response; any other records it
// after the write.
func encodeTraced(tr *obs.Trace, explain bool, write func(tj *TraceJSON)) {
	var enc time.Time
	if tr != nil {
		enc = time.Now()
	}
	var tj *TraceJSON
	if explain {
		tr.MarkSince(enc, obs.StageEncode)
		tj = traceJSON(tr)
	}
	write(tj)
	if !explain {
		tr.MarkSince(enc, obs.StageEncode)
	}
}

// serveHTTP returns the handler of one data-plane endpoint: a per-op
// endpoint (op is its kind) or /v1/batch (op is opBatch). Every endpoint
// runs the same steps — trace → admit → decode → validate → execute →
// encode — and only its codec differs.
func (s *Server) serveHTTP(op string, limit int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr, explain := s.startHTTPTrace(r, op)
		s.cfg.Observer.Finish(s.serveHTTPRequest(w, r, op, limit, tr, explain))
	}
}

// serveHTTPRequest serves one request and returns the trace to finish —
// which may differ from the one it was handed when the rsmibin explain
// bit starts one mid-request. No deferred closures: the untraced path
// must not allocate.
func (s *Server) serveHTTPRequest(w http.ResponseWriter, r *http.Request, op string, limit int64, tr *obs.Trace, explain bool) *obs.Trace {
	release, ok := s.admit(w)
	if !ok {
		return tr
	}
	defer release()
	t1 := tr.MarkSince(tr.StartTime(), obs.StageAdmission)
	var req request
	binExplain, ok := decodeRequest(w, r, &req, op, limit)
	if !ok {
		return tr
	}
	if binExplain && !explain {
		tr, explain = s.upgradeExplain(tr, op), true
	}
	if err := req.validate(req.batch); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return tr
	}
	tr.MarkSince(t1, obs.StageDecode)
	if err := s.execute(r.Context(), &req, transportHTTP, tr); err != nil {
		writeEngineError(w, err)
		return tr
	}
	encodeTraced(tr, explain, func(tj *TraceJSON) { respond(w, r, &req, tj) })
	return tr
}

// respond is the HTTP codec's encode step. rsmibin answers carry a
// single result or a batch frame; JSON answers keep each endpoint's
// historic document: FoundResponse, OKResponse or DeletedResponse for
// the bool-valued ops, PointsResponse for window, knn and sql, and
// BatchResponse for /v1/batch. Points and batches are encoded straight
// from the engine's points into a pooled buffer — no []PointJSON
// intermediates on the hot path (TestPointsJSONEncodeAllocs and
// TestBatchJSONEncodeAllocs pin O(1) allocations); only an EXPLAIN JSON
// answer takes the allocating route, a diagnostic query being off the
// hot path by definition.
func respond(w http.ResponseWriter, r *http.Request, req *request, tj *TraceJSON) {
	if wantsBinaryResponse(r) {
		writeBinary(w, func(b []byte) []byte {
			if req.batch {
				return appendBinTrace(appendBatchAnswers(b, req.answers), tj)
			}
			return appendBinTrace(appendAnswer(b, req.answer), tj)
		})
		return
	}
	a := req.answer
	switch {
	case req.batch && tj != nil:
		writeJSON(w, BatchResponse{Results: toBatchResults(req.answers), Trace: tj})
	case req.batch:
		writeJSONBuffered(w, func(b []byte) []byte { return appendBatchAnswersJSON(b, req.answers) })
	case a.op == OpPoint:
		writeJSON(w, FoundResponse{Found: a.flag, Trace: tj})
	case a.op == OpInsert:
		writeJSON(w, OKResponse{OK: a.flag, Trace: tj})
	case a.op == OpDelete:
		writeJSON(w, DeletedResponse{Deleted: a.flag, Trace: tj})
	case tj != nil:
		writeJSON(w, PointsResponse{Count: len(a.pts), Points: toPoints(a.pts), Trace: tj})
	default:
		writeJSONBuffered(w, func(b []byte) []byte { return appendPointsJSON(b, a.pts) })
	}
}

func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.TriggerRebuild() {
		writeError(w, http.StatusConflict, "rebuild already running")
		return
	}
	writeJSONStatus(w, http.StatusAccepted, OKResponse{OK: true})
}

// opStats merges one op's per-transport histograms into its /v1/stats
// summary.
func (s *Server) opStats(op opIdx) OpStats {
	return mergedStats(&s.hists[op][transportHTTP], &s.hists[op][transportStream])
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Engine:         s.eng.Name(),
		Points:         s.eng.Len(),
		UptimeSec:      time.Since(s.start).Seconds(),
		BlockAccesses:  s.eng.Accesses(),
		InFlight:       s.inFlight.Load(),
		Shed:           s.shed.Load(),
		Rebuilds:       s.rebuilds.Load(),
		RebuildRunning: s.rebuildRunning.Load(),
		Ops: map[string]OpStats{
			OpPoint:  s.opStats(opIdxPoint),
			OpWindow: s.opStats(opIdxWindow),
			OpKNN:    s.opStats(opIdxKNN),
			OpInsert: s.opStats(opIdxInsert),
			OpDelete: s.opStats(opIdxDelete),
			"batch":  s.opStats(opIdxBatch),
			OpSQL:    s.opStats(opIdxSQL),
		},
	}
	if pe, ok := s.eng.(plannerEngine); ok {
		c := pe.PlannerStats()
		resp.Planner = &PlannerStatsJSON{Planned: c.Planned, Mispredicts: c.Mispredicts, Routed: c.Routed}
	}
	if sc, ok := s.eng.(shardCounter); ok {
		resp.Shards = sc.NumShards()
	}
	if s.cfg.Replicator != nil {
		resp.Replication = s.cfg.Replicator.stats()
	} else if s.cfg.Replica != nil {
		resp.Replication = s.cfg.Replica.stats()
	}
	if s.subs != nil {
		c := s.subs.Counters()
		resp.Subs = &SubStats{
			Active:       c.Active,
			Subscribed:   c.Subscribed,
			Unsubscribed: c.Unsubscribed,
			Notified:     c.Notified,
			Dropped:      c.Dropped,
		}
	}
	if s.coPoint != nil {
		for _, c := range []interface {
			snapshot() (int64, int64, int64, int64)
		}{
			s.coPoint, s.coWindow, s.coKNN,
		} {
			b, q, m, d := c.snapshot()
			resp.Coalesce.Batches += b
			resp.Coalesce.Queries += q
			resp.Coalesce.Direct += d
			if m > resp.Coalesce.MaxSize {
				resp.Coalesce.MaxSize = m
			}
		}
		if resp.Coalesce.Batches > 0 {
			resp.Coalesce.MeanSize = float64(resp.Coalesce.Queries) / float64(resp.Coalesce.Batches)
		}
	}
	writeJSON(w, resp)
}

// handleHealth answers /healthz: pure liveness — the process is up and
// serving its mux. Readiness (is this node safe to route queries to?)
// is /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleReady answers /readyz. A primary or standalone server is ready
// as soon as it serves; a replica is ready only when it is bootstrapped,
// connected to its feed, and its applied sequence is within
// Config.ReadyMaxLag of the primary's — a freshly (re)bootstrapping or
// badly lagging replica answers 503 so load balancers route around it
// while /healthz keeps reporting the process alive.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if rep := s.cfg.Replica; rep != nil {
		if ready, reason := rep.Ready(s.cfg.ReadyMaxLag); !ready {
			writeError(w, http.StatusServiceUnavailable, "replica not ready: "+reason)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ready")
}
