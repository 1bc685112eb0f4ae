package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"testing"
	"time"

	"rsmi"
	"rsmi/internal/geom"
	"rsmi/internal/index"
)

// The layer-attribution self-test: slow one layer from benchmark code and
// check that the metrics of that layer, and only the workloads that use
// it, move.

const (
	testPoints = 20000
	testDelay  = 300 * time.Microsecond
)

func runSmall(t *testing.T, workload string, trace bool, hk hooks) result {
	t.Helper()
	rep, err := run(config{workload: workload, seed: 7, seconds: 1, trace: trace,
		points: testPoints, setups: 1, hooks: hk})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep.res
}

func value(t *testing.T, r result, name string) float64 {
	t.Helper()
	m, ok := r.Metrics[name]
	if !ok {
		t.Fatalf("metric %s missing", name)
	}
	return m.Value
}

// slowWindow delays every window query, single or batched.
type slowWindow struct{ rsmi.Engine }

func (e slowWindow) WindowQueryContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	time.Sleep(testDelay)
	return e.Engine.WindowQueryContext(ctx, q)
}

func (e slowWindow) BatchWindowQueryContext(ctx context.Context, qs []geom.Rect) ([][]geom.Point, error) {
	time.Sleep(testDelay)
	return e.Engine.BatchWindowQueryContext(ctx, qs)
}

// slowConn delays every read that returns data: a slow wire under the
// stream server.
type slowConn struct{ net.Conn }

func (c slowConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		time.Sleep(testDelay)
	}
	return n, err
}

type slowListener struct{ net.Listener }

func (l slowListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowConn{c}, nil
}

var (
	slowEngine = hooks{wrapEngine: func(e rsmi.Engine) rsmi.Engine { return slowWindow{e} }}
	slowWire   = hooks{wrapStream: func(l net.Listener) net.Listener { return slowListener{l} }}
)

// moved reports whether after exceeds before by at least most of the
// injected delay.
func moved(beforeUS, afterUS float64) bool {
	return afterUS-beforeUS > 0.6*float64(testDelay.Microseconds())
}

// unmoved reports whether two readings agree within a factor of two or
// 20µs, far inside the injected delay.
func unmoved(a, b float64) bool {
	return b < 2*a+20 && a < 2*b+20
}

func TestEngineDelayMovesEngineLayer(t *testing.T) {
	for _, wl := range []string{"embedded-read", "stream-rw"} {
		base := runSmall(t, wl, false, hooks{})
		slow := runSmall(t, wl, false, slowEngine)
		b, s := value(t, base, "window_p50_us"), value(t, slow, "window_p50_us")
		if !moved(b, s) {
			t.Errorf("%s: window_p50_us %.1f -> %.1f, want it to move by the engine delay", wl, b, s)
		}
		b, s = value(t, base, "point_p50_us"), value(t, slow, "point_p50_us")
		if !unmoved(b, s) {
			t.Errorf("%s: point_p50_us %.1f -> %.1f moved, want it unchanged", wl, b, s)
		}
	}
	// The traced runs attribute the delay to the layer that holds it.
	base := runSmall(t, "embedded-read", true, hooks{})
	slow := runSmall(t, "embedded-read", true, slowEngine)
	if b, s := value(t, base, "shard.window.ns")/1e3, value(t, slow, "shard.window.ns")/1e3; !moved(b, s) {
		t.Errorf("embedded-read: shard.window.ns %.1fµs -> %.1fµs, want it to move", b, s)
	}
	if b, s := value(t, base, "core.window.ns")/1e3, value(t, slow, "core.window.ns")/1e3; !unmoved(b, s) {
		t.Errorf("embedded-read: core.window.ns %.1fµs -> %.1fµs moved, want it unchanged", b, s)
	}
	base = runSmall(t, "stream-rw", true, hooks{})
	slow = runSmall(t, "stream-rw", true, slowEngine)
	if b, s := value(t, base, "server.execute.us"), value(t, slow, "server.execute.us"); s-b < 0.6*float64(testDelay.Microseconds())/3 {
		// A third of the EXPLAIN samples are windows.
		t.Errorf("stream-rw: server.execute.us %.1f -> %.1f, want it to move", b, s)
	}
}

func TestServingDelayMovesServedWorkloadsOnly(t *testing.T) {
	base := runSmall(t, "stream-rw", false, hooks{})
	slow := runSmall(t, "stream-rw", false, slowWire)
	if b, s := value(t, base, "window_p50_us"), value(t, slow, "window_p50_us"); !moved(b, s) {
		t.Errorf("stream-rw: window_p50_us %.1f -> %.1f, want it to move by the wire delay", b, s)
	}
	base = runSmall(t, "embedded-read", false, hooks{})
	slow = runSmall(t, "embedded-read", false, slowWire)
	if b, s := value(t, base, "window_p50_us"), value(t, slow, "window_p50_us"); !unmoved(b, s) {
		t.Errorf("embedded-read: window_p50_us %.1f -> %.1f moved with a serving-stack delay", b, s)
	}
	base = runSmall(t, "stream-rw", true, hooks{})
	slow = runSmall(t, "stream-rw", true, slowWire)
	if b, s := value(t, base, "transport.stream.us"), value(t, slow, "transport.stream.us"); !moved(b, s) {
		t.Errorf("stream-rw: transport.stream.us %.1f -> %.1f, want it to move", b, s)
	}
	if b, s := value(t, base, "server.execute.us"), value(t, slow, "server.execute.us"); !unmoved(b, s) {
		t.Errorf("stream-rw: server.execute.us %.1f -> %.1f moved with a wire delay", b, s)
	}
}

// strayPoint adds a point outside every window to each window answer.
type strayPoint struct{ rsmi.Engine }

func (e strayPoint) WindowQueryContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	pts, err := e.Engine.WindowQueryContext(ctx, q)
	return append(pts, geom.Pt(-1, -1)), err
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	r := runSmall(t, "embedded-read", false, hooks{wrapEngine: func(e rsmi.Engine) rsmi.Engine { return strayPoint{e} }})
	if r.Correct || r.Failed == 0 || exitCode(r) == 0 {
		t.Fatalf("a wrong window answer gave correct=%v failed=%d exit=%d; want a failed run", r.Correct, r.Failed, exitCode(r))
	}
	ok := runSmall(t, "embedded-read", false, hooks{})
	if !ok.Correct || ok.Failed != 0 || exitCode(ok) != 0 {
		t.Fatalf("an unmodified run gave correct=%v failed=%d", ok.Correct, ok.Failed)
	}
}

func TestResultHasEveryDeclaredMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		decl []struct{ Name, Unit string }
		defs []metricDef
	}{{decl.EndToEnd, endToEnd}, {decl.PerLayer, perLayer}} {
		if len(c.decl) != len(c.defs) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the code %d", len(c.decl), len(c.defs))
		}
		for i, d := range c.decl {
			if d.Name != c.defs[i].name || d.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, d.Name, d.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
	r := runSmall(t, "http-planner", true, hooks{})
	for _, d := range perLayer {
		value(t, r, d.name)
	}
	if value(t, r, "plan.calibrate.s") <= 0 || value(t, r, "rstar.window.ns") <= 0 || value(t, r, "transport.http_json.us") <= 0 {
		t.Errorf("http-planner traced run lacks its planner, baseline or transport numbers: %v", r.Metrics)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "caller", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "engine", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "engine", Start: 40, End: 60},
	}
	got := map[string]int64{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r.SelfNS
	}
	want := map[string]int64{"caller": 20, "client": 40, "engine": 50}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}

func TestPoolPointsJudgedByWriteTimes(t *testing.T) {
	in := &inputs{
		pts:  []geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.2, 0.2)},
		pool: []geom.Point{geom.Pt(0.15, 0.15), geom.Pt(0.25, 0.25)},
	}
	orc := &oracle{stored: map[geom.Point]int32{in.pts[0]: 0, in.pts[1]: 0, in.pool[0]: 1, in.pool[1]: 2}}
	want := newAnswer(in.pts)
	q := geom.Rect{MaxX: 1, MaxY: 1}
	here, other := newPoolLog(time.Now(), len(in.pool)), newPoolLog(time.Now(), len(in.pool))
	here.ins[0].Store(100)
	here.del[0].Store(200)
	other.ins[1].Store(100)
	answer := func(extra ...geom.Point) []geom.Point { return append(append([]geom.Point(nil), in.pts...), extra...) }
	for _, c := range []struct {
		name       string
		got        []geom.Point
		sent, back int64
		ok         bool
	}{
		{"inserted and live", answer(in.pool[0]), 150, 160, true},
		{"insert sent while in flight", answer(in.pool[0]), 50, 150, true},
		{"delete acknowledged while in flight", answer(in.pool[0]), 150, 250, true},
		{"insert sent after the answer", answer(in.pool[0]), 40, 90, false},
		{"delete acknowledged before the query", answer(in.pool[0]), 250, 260, false},
		{"inserted into another deployment only", answer(in.pool[1]), 150, 160, false},
		{"repeated point", answer(in.pts[0]), 150, 160, false},
	} {
		f := &inFlight{log: here, sent: c.sent, back: c.back}
		if v := orc.checkWindow(q, c.got, want, f); v.ok != c.ok {
			t.Errorf("window, %s: ok=%v (%s), want %v", c.name, v.ok, v.why, c.ok)
		}
		index.SortByDistance(c.got, geom.Pt(0, 0))
		if v := orc.checkKNN(geom.Pt(0, 0), 5, c.got, want, f); v.ok != c.ok {
			t.Errorf("kNN, %s: ok=%v (%s), want %v", c.name, v.ok, v.why, c.ok)
		}
	}
	if v := orc.checkWindow(q, answer(in.pool[0]), want, nil); v.ok {
		t.Errorf("a pool point passed a check that accepts none")
	}
}

func TestSameQueryInFlightTwiceKeepsBothSpans(t *testing.T) {
	tr := newTracer()
	k := qkey{op: opWindow, r: geom.Rect{MaxX: 1, MaxY: 1}}
	tr.bind(k, 1, 10)
	tr.bind(k, 2, 20)
	now := time.Now()
	tr.child(k, "engine", now, now)
	tr.child(k, "engine", now, now)
	tr.unbind(k, 1)
	tr.child(k, "engine", now, now) // request 2 already has its span
	tr.unbind(k, 2)
	tr.child(k, "engine", now, now) // nothing in flight
	got := map[uint64]uint64{}
	for _, s := range tr.spans {
		got[s.Req] = s.Parent
	}
	if len(tr.spans) != 2 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("spans %+v, want one engine span under each request", tr.spans)
	}
}
