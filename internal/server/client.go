package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"rsmi/internal/geom"
)

// Proto selects the wire protocol a Client speaks for data-plane
// operations (queries, writes, batches). Control-plane calls (stats,
// rebuild, health) are always JSON.
type Proto string

const (
	// ProtoJSON is the debuggable default: JSON bodies both ways.
	ProtoJSON Proto = "json"
	// ProtoBinary speaks rsmibin/1 both ways (see binproto.go).
	ProtoBinary Proto = "binary"
)

// ParseProto parses a -proto flag value.
func ParseProto(s string) (Proto, error) {
	switch Proto(s) {
	case ProtoJSON, ProtoBinary:
		return Proto(s), nil
	}
	return "", fmt.Errorf("unknown protocol %q (want json|binary)", s)
}

// Transport selects how a Client reaches the server for data-plane
// operations.
type Transport string

const (
	// TransportHTTP sends one HTTP request per operation or batch (JSON
	// or rsmibin body per Proto). The default.
	TransportHTTP Transport = "http"
	// TransportTCP speaks rsmibin/1 over the persistent pipelined
	// rsmistream connection pool (stream.go); the addr is the server's
	// stream listener. The stream transport is binary-only, and the
	// HTTP-only control plane (Stats, Rebuild, Health) is unavailable.
	TransportTCP Transport = "tcp"
)

// ParseTransport parses a -transport flag value.
func ParseTransport(s string) (Transport, error) {
	switch Transport(s) {
	case TransportHTTP, TransportTCP:
		return Transport(s), nil
	}
	return "", fmt.Errorf("unknown transport %q (want http|tcp)", s)
}

// Options configures a Client beyond its address.
type Options struct {
	// Proto selects the HTTP data-plane encoding (default ProtoJSON).
	// Ignored by TransportTCP, which is always rsmibin.
	Proto Proto
	// Transport selects HTTP or the persistent TCP stream (default
	// TransportHTTP).
	Transport Transport
	// Timeout bounds one request round-trip: the HTTP client timeout,
	// and the stream transport's dial/write deadlines and per-request
	// response wait (default 30s). Large batches against a loaded
	// 1M-point server or a slow link may need more.
	Timeout time.Duration
	// StreamConns sizes the TCP connection pool (default 4). More
	// connections raise pipelining fan-out; the server batches
	// back-to-back frames from all of them.
	StreamConns int
}

// DefaultTimeout is the per-request client timeout when Options.Timeout
// is zero.
const DefaultTimeout = 30 * time.Second

// Client is a Go client for the serving API, used by cmd/rsmi-loadgen,
// the bench harness, and the examples. It is safe for concurrent use; one
// Client pools keep-alive HTTP connections — or persistent stream
// connections — across all its callers.
type Client struct {
	base   string
	hc     *http.Client
	proto  Proto
	stream *streamClient

	// subMu guards the lazily-created standing-query state (subclient.go).
	subMu sync.Mutex
	subc  *subClient
}

// Option configures a Client at construction; pass any combination to
// NewClient. The zero configuration — no options — is a JSON client
// over HTTP with the default timeout.
type Option func(*Options)

// WithProto selects the HTTP data-plane encoding (ProtoJSON or
// ProtoBinary). Ignored by the TCP transport, which is always rsmibin.
func WithProto(p Proto) Option { return func(o *Options) { o.Proto = p } }

// WithTransport selects HTTP or the persistent TCP stream; with
// TransportTCP the address handed to NewClient is the server's
// rsmistream listener.
func WithTransport(t Transport) Option { return func(o *Options) { o.Transport = t } }

// WithTimeout bounds one request round-trip (default DefaultTimeout).
func WithTimeout(d time.Duration) Option { return func(o *Options) { o.Timeout = d } }

// WithStreamConns sizes the TCP transport's connection pool (default 4).
func WithStreamConns(n int) Option { return func(o *Options) { o.StreamConns = n } }

// NewClient returns a client for the server at addr ("host:port" or a
// full http:// URL), configured by the options:
//
//	cl := server.NewClient(addr)                                  // JSON over HTTP
//	cl := server.NewClient(addr, server.WithProto(server.ProtoBinary))
//	cl := server.NewClient(addr, server.WithTransport(server.TransportTCP))
func NewClient(addr string, opts ...Option) *Client {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return newClientOptions(addr, o)
}

// newClientOptions builds the client. With Options.Transport ==
// TransportTCP, addr is the server's rsmistream listener ("host:port")
// and data-plane calls ride the persistent connection pool; otherwise
// addr is the HTTP address. Anything other than ProtoBinary (including
// the zero value) normalises to ProtoJSON, so Proto() always reports
// what the client actually speaks.
func newClientOptions(addr string, o Options) *Client {
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.Transport == TransportTCP {
		if o.StreamConns <= 0 {
			o.StreamConns = 4
		}
		return &Client{
			proto:  ProtoBinary,
			stream: newStreamClient(addr, o.StreamConns, o.Timeout),
		}
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if o.Proto != ProtoBinary {
		o.Proto = ProtoJSON
	}
	return &Client{
		base:  strings.TrimRight(addr, "/"),
		proto: o.Proto,
		hc: &http.Client{
			Timeout: o.Timeout,
			Transport: &http.Transport{
				// Closed-loop load generators run hundreds of concurrent
				// clients against one host; the default per-host idle pool
				// of 2 would thrash connections.
				MaxIdleConns:        512,
				MaxIdleConnsPerHost: 512,
			},
		},
	}
}

// Proto reports the client's data-plane wire protocol.
func (c *Client) Proto() Proto { return c.proto }

// Transport reports the client's data-plane transport.
func (c *Client) Transport() Transport {
	if c.stream != nil {
		return TransportTCP
	}
	return TransportHTTP
}

// Close releases the client's pooled connections. A closed stream client
// fails subsequent calls; a closed HTTP client only drops idle
// connections.
func (c *Client) Close() {
	c.subMu.Lock()
	sc := c.subc
	c.subc = nil
	c.subMu.Unlock()
	if sc != nil {
		sc.close()
	}
	if c.stream != nil {
		c.stream.close()
	}
	if c.hc != nil {
		c.hc.CloseIdleConnections()
	}
}

// errNoHTTP reports a control-plane call on a TCP-only client.
var errNoHTTP = errors.New("client: control-plane calls need the HTTP transport")

// StatusError reports a non-2xx response. Callers distinguishing shed
// load check Code == http.StatusTooManyRequests.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: status %d: %s", e.Code, e.Msg)
}

// post sends one JSON request and decodes the 2xx answer into out. ctx
// bounds the round-trip in addition to the client timeout — hedged
// reads cancel their loser through it.
func (c *Client) post(ctx context.Context, path string, in, out interface{}) error {
	if c.hc == nil {
		return errNoHTTP
	}
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: marshal: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	return handleResponse(resp, out)
}

func (c *Client) get(path string, out interface{}) error {
	if c.hc == nil {
		return errNoHTTP
	}
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	return handleResponse(resp, out)
}

// handleResponse decodes a 2xx body into out (when non-nil), turns any
// other status into a StatusError, and always drains and closes the body
// so the keep-alive connection is reusable.
func handleResponse(resp *http.Response, out interface{}) error {
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return &StatusError{Code: resp.StatusCode, Msg: e.Error}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func fromPoints(pts []PointJSON) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Pt(p.X, p.Y)
	}
	return out
}

// errBinResultKind reports a response whose result kind does not match
// the op that was sent.
var errBinResultKind = errors.New("client: rsmibin result kind does not match op")

// postBinary sends one rsmibin request frame and decodes the response
// frame (single selects the per-op response shape) plus its optional
// trailing EXPLAIN trace. Non-2xx answers are JSON in either protocol
// and surface as *StatusError.
func (c *Client) postBinary(ctx context.Context, path string, frame []byte, single bool) ([]binResult, *TraceJSON, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(frame))
	if err != nil {
		return nil, nil, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.Header.Set("Accept", ContentTypeBinary)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, nil, &StatusError{Code: resp.StatusCode, Msg: e.Error}
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("client: read response: %w", err)
	}
	return decodeBinaryResults(body, single)
}

// binSingle executes one data-plane op over rsmibin.
func (c *Client) binSingle(ctx context.Context, path string, op BatchOp, explain bool) (binResult, *TraceJSON, error) {
	b, err := appendOp(appendBinHeader(make([]byte, 0, 64)), op)
	if err != nil {
		return binResult{}, nil, err
	}
	if explain {
		b = markBinExplain(b, true)
	}
	rs, tj, err := c.postBinary(ctx, path, b, true)
	if err != nil {
		return binResult{}, nil, err
	}
	return rs[0], tj, nil
}

// binBool executes a bool-valued op over rsmibin.
func (c *Client) binBool(ctx context.Context, path string, op BatchOp) (bool, error) {
	res, _, err := c.singleResult(ctx, path, op, false)
	if err != nil {
		return false, err
	}
	if res.tag != binResBool {
		return false, errBinResultKind
	}
	return res.flag, nil
}

// binPoints executes a points-valued op over rsmibin.
func (c *Client) binPoints(ctx context.Context, path string, op BatchOp) ([]geom.Point, error) {
	res, _, err := c.singleResult(ctx, path, op, false)
	if err != nil {
		return nil, err
	}
	if res.tag != binResPoints {
		return nil, errBinResultKind
	}
	return res.pts, nil
}

// singleResult executes one op over whichever binary path the client
// uses: a one-op stream frame, or an rsmibin HTTP request to path.
func (c *Client) singleResult(ctx context.Context, path string, op BatchOp, explain bool) (binResult, *TraceJSON, error) {
	if c.stream != nil {
		rs, tj, err := c.stream.streamDo(ctx, []BatchOp{op}, explain)
		if err != nil {
			return binResult{}, nil, err
		}
		return rs[0], tj, nil
	}
	return c.binSingle(ctx, path, op, explain)
}

// QueryOpt customises one query call; every data-plane verb accepts a
// variadic tail of them.
type QueryOpt func(*queryOpts)

type queryOpts struct {
	// explain, when non-nil, is where the inline EXPLAIN trace lands.
	explain **TraceJSON
}

// WithExplain requests an inline EXPLAIN trace and stores it into *dst
// when the call returns successfully: the stage breakdown, shards
// visited, block accesses, and — on planned queries — the chosen
// backend with estimated vs actual cost. Works on every proto/transport
// combination (?explain=1 for JSON, the rsmibin explain flag bit for
// binary HTTP and the stream):
//
//	var tj *server.TraceJSON
//	pts, err := cl.WindowQuery(ctx, q, server.WithExplain(&tj))
func WithExplain(dst **TraceJSON) QueryOpt {
	return func(o *queryOpts) { o.explain = dst }
}

func applyQueryOpts(opts []QueryOpt) queryOpts {
	var o queryOpts
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// finishExplain delivers a returned trace to the caller's WithExplain
// destination (nil on the non-explain path).
func (o *queryOpts) finishExplain(tj *TraceJSON) {
	if o.explain != nil {
		*o.explain = tj
	}
}

// PointQuery reports whether a point with exactly p's coordinates is
// indexed.
func (c *Client) PointQuery(ctx context.Context, p geom.Point, opts ...QueryOpt) (bool, error) {
	o := applyQueryOpts(opts)
	op := BatchOp{Op: OpPoint, X: p.X, Y: p.Y}
	if c.proto == ProtoBinary {
		if o.explain == nil {
			return c.binBool(ctx, "/v1/point", op)
		}
		res, tj, err := c.singleResult(ctx, "/v1/point", op, true)
		if err != nil {
			return false, err
		}
		if res.tag != binResBool {
			return false, errBinResultKind
		}
		o.finishExplain(tj)
		return res.flag, nil
	}
	var resp FoundResponse
	err := c.post(ctx, jsonPath("/v1/point", o), PointJSON{X: p.X, Y: p.Y}, &resp)
	if err == nil {
		o.finishExplain(resp.Trace)
	}
	return resp.Found, err
}

// WindowQuery returns the indexed points inside the window.
func (c *Client) WindowQuery(ctx context.Context, q geom.Rect, opts ...QueryOpt) ([]geom.Point, error) {
	o := applyQueryOpts(opts)
	op := BatchOp{Op: OpWindow, MinX: q.MinX, MinY: q.MinY, MaxX: q.MaxX, MaxY: q.MaxY}
	if c.proto == ProtoBinary {
		return c.binPointsOpt(ctx, "/v1/window", op, &o)
	}
	var resp PointsResponse
	err := c.post(ctx, jsonPath("/v1/window", o), RectJSON{MinX: q.MinX, MinY: q.MinY, MaxX: q.MaxX, MaxY: q.MaxY}, &resp)
	if err != nil {
		return nil, err
	}
	o.finishExplain(resp.Trace)
	return fromPoints(resp.Points), nil
}

// KNN returns up to k nearest neighbours of q, closest first.
func (c *Client) KNN(ctx context.Context, q geom.Point, k int, opts ...QueryOpt) ([]geom.Point, error) {
	o := applyQueryOpts(opts)
	op := BatchOp{Op: OpKNN, X: q.X, Y: q.Y, K: k}
	if c.proto == ProtoBinary {
		return c.binPointsOpt(ctx, "/v1/knn", op, &o)
	}
	var resp PointsResponse
	err := c.post(ctx, jsonPath("/v1/knn", o), KNNJSON{X: q.X, Y: q.Y, K: k}, &resp)
	if err != nil {
		return nil, err
	}
	o.finishExplain(resp.Trace)
	return fromPoints(resp.Points), nil
}

// SQL executes one statement in the spatial SQL dialect (POST /v1/sql;
// internal/sqlfe documents the grammar) and returns the result rows.
// With WithExplain the trace carries the planner's decision: chosen
// backend, estimated vs actual cost.
func (c *Client) SQL(ctx context.Context, query string, opts ...QueryOpt) ([]geom.Point, error) {
	o := applyQueryOpts(opts)
	if c.proto == ProtoBinary {
		return c.binPointsOpt(ctx, "/v1/sql", BatchOp{Op: OpSQL, SQL: query}, &o)
	}
	var resp PointsResponse
	err := c.post(ctx, jsonPath("/v1/sql", o), SQLRequest{Query: query}, &resp)
	if err != nil {
		return nil, err
	}
	o.finishExplain(resp.Trace)
	return fromPoints(resp.Points), nil
}

// Insert adds a point.
func (c *Client) Insert(ctx context.Context, p geom.Point, opts ...QueryOpt) error {
	o := applyQueryOpts(opts)
	op := BatchOp{Op: OpInsert, X: p.X, Y: p.Y}
	if c.proto == ProtoBinary {
		if o.explain == nil {
			_, err := c.binBool(ctx, "/v1/insert", op)
			return err
		}
		res, tj, err := c.singleResult(ctx, "/v1/insert", op, true)
		if err != nil {
			return err
		}
		if res.tag != binResBool {
			return errBinResultKind
		}
		o.finishExplain(tj)
		return nil
	}
	var resp OKResponse
	err := c.post(ctx, jsonPath("/v1/insert", o), PointJSON{X: p.X, Y: p.Y}, &resp)
	if err == nil {
		o.finishExplain(resp.Trace)
	}
	return err
}

// Delete removes the point with exactly p's coordinates, reporting
// whether it existed.
func (c *Client) Delete(ctx context.Context, p geom.Point, opts ...QueryOpt) (bool, error) {
	o := applyQueryOpts(opts)
	op := BatchOp{Op: OpDelete, X: p.X, Y: p.Y}
	if c.proto == ProtoBinary {
		if o.explain == nil {
			return c.binBool(ctx, "/v1/delete", op)
		}
		res, tj, err := c.singleResult(ctx, "/v1/delete", op, true)
		if err != nil {
			return false, err
		}
		if res.tag != binResBool {
			return false, errBinResultKind
		}
		o.finishExplain(tj)
		return res.flag, nil
	}
	var resp DeletedResponse
	err := c.post(ctx, jsonPath("/v1/delete", o), PointJSON{X: p.X, Y: p.Y}, &resp)
	if err == nil {
		o.finishExplain(resp.Trace)
	}
	return resp.Deleted, err
}

// Batch executes a heterogeneous operation list in one round-trip and
// returns the per-op results in request order. A WithExplain trace
// covers the whole batch.
func (c *Client) Batch(ctx context.Context, ops []BatchOp, opts ...QueryOpt) ([]BatchResult, error) {
	o := applyQueryOpts(opts)
	if c.proto == ProtoBinary {
		return c.binBatch(ctx, ops, &o)
	}
	var resp BatchResponse
	err := c.post(ctx, jsonPath("/v1/batch", o), BatchRequest{Ops: ops}, &resp)
	if err == nil {
		o.finishExplain(resp.Trace)
	}
	return resp.Results, err
}

// jsonPath appends ?explain=1 to a JSON endpoint path when the call
// asked for a trace.
func jsonPath(path string, o queryOpts) string {
	if o.explain != nil {
		return path + "?explain=1"
	}
	return path
}

// binPointsOpt executes a points-valued op over rsmibin, honouring the
// call's explain option.
func (c *Client) binPointsOpt(ctx context.Context, path string, op BatchOp, o *queryOpts) ([]geom.Point, error) {
	if o.explain == nil {
		return c.binPoints(ctx, path, op)
	}
	res, tj, err := c.singleResult(ctx, path, op, true)
	if err != nil {
		return nil, err
	}
	if res.tag != binResPoints {
		return nil, errBinResultKind
	}
	o.finishExplain(tj)
	return res.pts, nil
}

// binBatch executes a batch over rsmibin — a stream frame or an HTTP
// /v1/batch request — mapping results back to the JSON result shape so
// every protocol/transport shares one client API.
func (c *Client) binBatch(ctx context.Context, ops []BatchOp, o *queryOpts) ([]BatchResult, error) {
	explain := o.explain != nil
	var rs []binResult
	var tj *TraceJSON
	var err error
	if c.stream != nil {
		rs, tj, err = c.stream.streamDo(ctx, ops, explain)
	} else {
		b := appendBinHeader(make([]byte, 0, 16+24*len(ops)))
		b = appendUvarint(b, uint64(len(ops)))
		for _, op := range ops {
			if b, err = appendOp(b, op); err != nil {
				return nil, err
			}
		}
		if explain {
			b = markBinExplain(b, false)
		}
		rs, tj, err = c.postBinary(ctx, "/v1/batch", b, false)
	}
	if err != nil {
		return nil, err
	}
	o.finishExplain(tj)
	if len(rs) != len(ops) {
		return nil, fmt.Errorf("client: batch returned %d results for %d ops", len(rs), len(ops))
	}
	return batchResultsFromBin(ops, rs)
}

// batchResultsFromBin maps raw binary results onto the per-op API result
// shapes, enforcing result-kind/op-kind agreement.
func batchResultsFromBin(ops []BatchOp, rs []binResult) ([]BatchResult, error) {
	out := make([]BatchResult, len(rs))
	for i, r := range rs {
		switch ops[i].Op {
		case OpPoint, OpInsert, OpDelete:
			if r.tag != binResBool {
				return nil, errBinResultKind
			}
			switch ops[i].Op {
			case OpPoint:
				out[i] = BatchResult{Found: r.flag}
			case OpInsert:
				out[i] = BatchResult{OK: r.flag}
			default:
				out[i] = BatchResult{Deleted: r.flag}
			}
		default:
			if r.tag != binResPoints {
				return nil, errBinResultKind
			}
			out[i] = BatchResult{Count: len(r.pts), Points: toPoints(r.pts)}
		}
	}
	return out, nil
}

// Rebuild triggers a rolling rebuild; it returns a *StatusError with code
// 409 if one is already running.
func (c *Client) Rebuild(ctx context.Context) error {
	return c.post(ctx, "/v1/rebuild", struct{}{}, nil)
}

// Stats fetches the serving counters.
func (c *Client) Stats() (StatsResponse, error) {
	var resp StatsResponse
	err := c.get("/v1/stats", &resp)
	return resp, err
}

// Health reports whether the server answers its health check.
func (c *Client) Health() error {
	return c.get("/healthz", nil)
}
