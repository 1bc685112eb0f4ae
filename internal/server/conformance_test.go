package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"rsmi"
	"rsmi/internal/geom"
)

// conformanceTransport is one column of the op × transport matrix: a
// client speaking one codec, and the histogram column its requests must
// land in.
type conformanceTransport struct {
	name string
	cl   *Client
	col  transportIdx
}

// conformanceTransports returns a client per codec — HTTP JSON, HTTP
// rsmibin and the TCP stream — against one server.
func conformanceTransports(t *testing.T, httpURL, streamAddr string) []conformanceTransport {
	t.Helper()
	tps := []conformanceTransport{
		{"http-json", NewClient(httpURL), transportHTTP},
		{"http-rsmibin", NewClient(httpURL, WithProto(ProtoBinary)), transportHTTP},
		{"stream", NewClient(streamAddr, WithTransport(TransportTCP)), transportStream},
	}
	for _, tp := range tps {
		t.Cleanup(tp.cl.Close)
	}
	return tps
}

// histCounts snapshots every op × transport histogram count.
func histCounts(s *Server) (c [numOps][numTransports]int64) {
	for op := range c {
		for tr := range c[op] {
			c[op][tr] = s.hists[op][tr].count.Load()
		}
	}
	return c
}

// TestOpTransportConformance runs every op on every transport through the
// one executor and checks three things per cell: the answer equals the
// other transports', the histogram count moves in exactly the calling
// transport's column (and /v1/stats reports it), and each invalid input
// is refused with the same status everywhere, counting nothing.
func TestOpTransportConformance(t *testing.T) {
	eng, pts := testEngine(t)
	s, httpURL, streamAddr := startStreamServer(t, Config{Engine: eng, MaxBatch: 8})
	tps := conformanceTransports(t, httpURL, streamAddr)
	stats := NewClient(httpURL)
	ctx := context.Background()

	c := pts[42]
	win := geom.RectAround(c, 0.05, 0.05)
	sql := fmt.Sprintf("SELECT * FROM points ORDER BY ST_Distance(pt, POINT(%g, %g)) LIMIT 6", c.X, c.Y)
	// Each transport inserts, then deletes, a point of its own, so every
	// transport sees the same index state and the same answers.
	fresh := func(i int) geom.Point { return geom.Pt(0.123456+float64(i)*1e-3, 0.654321) }
	ops := []struct {
		name string
		idx  opIdx
		run  func(cl *Client, i int) (interface{}, error)
	}{
		{OpPoint, opIdxPoint, func(cl *Client, _ int) (interface{}, error) { return cl.PointQuery(ctx, c) }},
		{OpWindow, opIdxWindow, func(cl *Client, _ int) (interface{}, error) { return cl.WindowQuery(ctx, win) }},
		{OpKNN, opIdxKNN, func(cl *Client, _ int) (interface{}, error) { return cl.KNN(ctx, c, 5) }},
		{OpSQL, opIdxSQL, func(cl *Client, _ int) (interface{}, error) { return cl.SQL(ctx, sql) }},
		{opBatch, opIdxBatch, func(cl *Client, _ int) (interface{}, error) {
			return cl.Batch(ctx, []BatchOp{
				{Op: OpPoint, X: c.X, Y: c.Y},
				{Op: OpWindow, MinX: win.MinX, MinY: win.MinY, MaxX: win.MaxX, MaxY: win.MaxY},
				{Op: OpKNN, X: c.X, Y: c.Y, K: 3},
				{Op: OpDelete, X: -7, Y: -7},
			})
		}},
		{OpInsert, opIdxInsert, func(cl *Client, i int) (interface{}, error) { return true, cl.Insert(ctx, fresh(i)) }},
		{OpDelete, opIdxDelete, func(cl *Client, i int) (interface{}, error) { return cl.Delete(ctx, fresh(i)) }},
	}
	for _, op := range ops {
		var want interface{}
		for i, tp := range tps {
			before, statsBefore := histCounts(s), mustStats(t, stats)
			got, err := op.run(tp.cl, i)
			if err != nil {
				t.Fatalf("%s over %s: %v", op.name, tp.name, err)
			}
			if i == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s over %s = %v, want %v (as over %s)", op.name, tp.name, got, want, tps[0].name)
			}
			after := histCounts(s)
			for o := range after {
				for col := range after[o] {
					wantDelta := int64(0)
					if opIdx(o) == op.idx && transportIdx(col) == tp.col {
						wantDelta = 1
					}
					if d := after[o][col] - before[o][col]; d != wantDelta {
						t.Errorf("%s over %s: %s/%s count moved by %d, want %d",
							op.name, tp.name, opIdxName[o], transportIdxName[col], d, wantDelta)
					}
				}
			}
			if d := mustStats(t, stats).Ops[op.name].Count - statsBefore.Ops[op.name].Count; d != 1 {
				t.Errorf("%s over %s: /v1/stats count moved by %d, want 1", op.name, tp.name, d)
			}
		}
	}

	inf := math.Inf(1)
	huge := 3 << 60
	invalid := []struct {
		name string
		op   BatchOp
	}{
		{"non-finite coordinate", BatchOp{Op: OpPoint, X: inf, Y: 0.5}},
		{"inverted window", BatchOp{Op: OpWindow, MinX: 0.6, MinY: 0.1, MaxX: 0.5, MaxY: 0.2}},
		{"bad SQL", BatchOp{Op: OpSQL, SQL: "SELECT * FROM points WHERE"}},
		{"huge k", BatchOp{Op: OpKNN, X: 0.5, Y: 0.5, K: huge}},
		{"huge SQL k", BatchOp{Op: OpSQL, SQL: fmt.Sprintf(
			"SELECT * FROM points ORDER BY ST_Distance(pt, POINT(0.5, 0.5)) LIMIT %d", huge)}},
	}
	for _, in := range invalid {
		for _, batch := range []bool{false, true} {
			for _, tp := range tps {
				before := histCounts(s)
				err := sendInvalid(ctx, tp, httpURL, in.op, batch)
				var se *StatusError
				if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
					t.Errorf("%s (batch %v) over %s: %v, want status 400", in.name, batch, tp.name, err)
				}
				if after := histCounts(s); after != before {
					t.Errorf("%s (batch %v) over %s: a refused request was counted", in.name, batch, tp.name)
				}
			}
		}
	}
}

// sendInvalid sends op as a per-op request or a one-op batch. JSON cannot
// carry a non-finite number, so the JSON codec gets one that overflows
// float64 instead — refused with the same status at decode.
func sendInvalid(ctx context.Context, tp conformanceTransport, httpURL string, op BatchOp, batch bool) error {
	if tp.name == "http-json" && math.IsInf(op.X, 0) {
		path, body := "/v1/point", `{"x":1e999,"y":0.5}`
		if batch {
			path, body = "/v1/batch", `{"ops":[{"op":"point","x":1e999,"y":0.5}]}`
		}
		resp, err := http.Post(httpURL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		return handleResponse(resp, nil)
	}
	if batch {
		_, err := tp.cl.Batch(ctx, []BatchOp{op})
		return err
	}
	var err error
	switch op.Op {
	case OpPoint:
		_, err = tp.cl.PointQuery(ctx, geom.Pt(op.X, op.Y))
	case OpWindow:
		_, err = tp.cl.WindowQuery(ctx, op.rect())
	case OpKNN:
		_, err = tp.cl.KNN(ctx, geom.Pt(op.X, op.Y), op.K)
	case OpSQL:
		_, err = tp.cl.SQL(ctx, op.SQL)
	}
	return err
}

func mustStats(t *testing.T, cl *Client) StatsResponse {
	t.Helper()
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	return st
}

// TestHugeKRejected sends a k whose 4k overflows to a Grid-backed
// server on every kNN path — /v1/knn, /v1/batch and a /v1/sql LIMIT. Each
// must be refused with 400 before reaching the engine (the Grid's
// candidate bound once panicked on the coalescer goroutine, taking the
// whole process down), and the server must go on answering.
func TestHugeKRejected(t *testing.T) {
	_, pts := testEngine(t)
	_, cl := startTestServer(t, Config{Engine: rsmi.NewGridFileEngine(pts, 0)})
	const huge = "3458764513820540928" // 3<<60
	for _, c := range []struct{ path, body string }{
		{"/v1/knn", `{"x":0.5,"y":0.5,"k":` + huge + `}`},
		{"/v1/batch", `{"ops":[{"op":"knn","x":0.5,"y":0.5,"k":` + huge + `}]}`},
		{"/v1/sql", `{"query":"SELECT * FROM points ORDER BY ST_Distance(pt, POINT(0.5, 0.5)) LIMIT ` + huge + `"}`},
	} {
		resp, err := http.Post(cl.base+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("POST %s: %v", c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with k=%s: status %d, want 400", c.path, huge, resp.StatusCode)
		}
	}
	got, err := cl.KNN(context.Background(), geom.Pt(0.5, 0.5), 5)
	if err != nil || len(got) != 5 {
		t.Fatalf("KNN after huge-k requests = %d points, %v; want 5", len(got), err)
	}
}
