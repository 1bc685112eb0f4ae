package main

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

// Query shapes shared by every workload: the paper's defaults (§6.1).
const (
	windowFrac = 0.0001 // window area as a share of the unit square
	knnK       = 25
	sqlLimit   = 10 // LIMIT of the distance-ordered window statements

	numWindows = 1000
	numKNN     = 500
	numPoints  = 5000
)

// sqlKind is the shape of one generated SQL statement.
type sqlKind uint8

const (
	sqlWindow sqlKind = iota
	sqlOrdered
	sqlKNN
)

// sqlStmt is one SQL statement plus what the oracle needs to check it:
// the index of the window or kNN query it restates, and the ORDER BY
// centre of a distance-ordered window.
type sqlStmt struct {
	text   string
	kind   sqlKind
	idx    int
	center geom.Point
}

// inputs is everything a run feeds the program, generated from the seed.
type inputs struct {
	pts     []geom.Point
	windows []geom.Rect
	knnQs   []geom.Point
	pointQs []geom.Point
	// pool holds fresh points, disjoint from pts, for inserts. Caller i
	// inserts from its own segment, so deletes only remove what that
	// caller inserted.
	pool []geom.Point
	sqls []sqlStmt
}

func makeInputs(n int, seed int64, poolSize int) *inputs {
	pts := dataset.Generate(dataset.Skewed, n, seed)
	in := &inputs{
		pts:     pts,
		windows: workload.Windows(pts, numWindows, windowFrac, 1, seed+1),
		knnQs:   workload.KNNPoints(pts, numKNN, seed+2),
		pointQs: workload.PointQueries(pts, numPoints, seed+3),
		pool:    workload.InsertPoints(pts, poolSize, seed+4),
	}
	in.sqls = makeSQL(in)
	return in
}

// makeSQL restates the window and kNN queries as the three statement
// shapes of the SQL front-end. Coordinates are printed in shortest
// round-trip form, so the parsed query equals the generated one.
func makeSQL(in *inputs) []sqlStmt {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var out []sqlStmt
	for i, r := range in.windows {
		box := "BOX(" + f(r.MinX) + ", " + f(r.MinY) + ", " + f(r.MaxX) + ", " + f(r.MaxY) + ")"
		out = append(out, sqlStmt{
			text: "SELECT * FROM points WHERE ST_Within(pt, " + box + ")",
			kind: sqlWindow, idx: i,
		})
		c := geom.Pt((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2)
		out = append(out, sqlStmt{
			text: "SELECT * FROM points WHERE ST_Within(pt, " + box + ") ORDER BY ST_Distance(pt, POINT(" +
				f(c.X) + ", " + f(c.Y) + ")) LIMIT " + strconv.Itoa(sqlLimit),
			kind: sqlOrdered, idx: i, center: c,
		})
	}
	for i, q := range in.knnQs {
		out = append(out, sqlStmt{
			text: "SELECT * FROM points ORDER BY ST_Distance(pt, POINT(" + f(q.X) + ", " + f(q.Y) + ")) LIMIT " +
				strconv.Itoa(knnK),
			kind: sqlKNN, idx: i,
		})
	}
	return out
}

// answer is one oracle answer: its points and their order-free digest.
type answer struct {
	pts  []geom.Point
	hash uint64
}

// oracle holds the exact answers to every generated query over the base
// points, computed with index.Linear.
type oracle struct {
	windows []answer
	knn     []answer // sorted by distance
	// stored maps every base point to 0 and the insert pool's point i
	// to i+1.
	stored map[geom.Point]int32
}

func buildOracle(in *inputs) *oracle {
	lin := index.NewLinear(in.pts)
	o := &oracle{
		windows: make([]answer, len(in.windows)),
		knn:     make([]answer, len(in.knnQs)),
		stored:  make(map[geom.Point]int32, len(in.pts)+len(in.pool)),
	}
	for _, p := range in.pts {
		o.stored[p] = 0
	}
	for i, p := range in.pool {
		o.stored[p] = int32(i) + 1
	}
	// Two workers: the host has two cores and nothing else runs yet.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(in.windows); i += 2 {
				o.windows[i] = newAnswer(lin.WindowQuery(in.windows[i]))
			}
			for i := w; i < len(in.knnQs); i += 2 {
				o.knn[i] = newAnswer(linearKNN(lin, in.knnQs[i], knnK))
			}
		}(w)
	}
	wg.Wait()
	return o
}

// linearKNN answers a kNN query exactly with Linear window scans rather
// than Linear.KNN's full sort: grow a square around q until it holds k
// points; the k-th nearest of those bounds the true k-th distance, so a
// square of that half-width holds every true neighbour.
func linearKNN(lin *index.Linear, q geom.Point, k int) []geom.Point {
	half := 0.002
	var cand []geom.Point
	for {
		cand = lin.WindowQuery(geom.RectAround(q, 2*half, 2*half))
		if len(cand) >= k || half >= 2 {
			break
		}
		half *= 2
	}
	index.SortByDistance(cand, q)
	if len(cand) < k {
		return cand
	}
	r := math.Sqrt(q.Dist2(cand[k-1]))
	cand = lin.WindowQuery(geom.RectAround(q, 2*r, 2*r))
	index.SortByDistance(cand, q)
	return cand[:k]
}

func newAnswer(pts []geom.Point) answer { return answer{pts: pts, hash: digest(pts)} }

// digest is an order-independent hash of a point set: equal sets give
// equal digests, so a matching count and digest prove an answer equal to
// the oracle's without a set comparison.
func digest(pts []geom.Point) uint64 {
	var h uint64
	for _, p := range pts {
		h += mix64(math.Float64bits(p.X)*0x9e3779b97f4a7c15 ^ math.Float64bits(p.Y))
	}
	return h
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// verdict is the outcome of checking one answer: whether it is valid
// (every point stored and satisfying the query, kNN sorted) and how much
// of the oracle answer it returned.
type verdict struct {
	ok         bool
	why        string
	hits, want int
}

// poolLog records, for one deployment, when each insert-pool point's
// insert was sent and when its delete was acknowledged, in ns since
// epoch (0: never). Only the caller that owns a pool point writes its
// entries; any caller reads them.
type poolLog struct {
	epoch    time.Time
	ins, del []atomic.Int64
}

func newPoolLog(epoch time.Time, n int) *poolLog {
	return &poolLog{epoch: epoch, ins: make([]atomic.Int64, n), del: make([]atomic.Int64, n)}
}

// now returns the time since epoch in ns, never 0.
func (l *poolLog) now() int64 { return max(time.Since(l.epoch).Nanoseconds(), 1) }

// inFlight is the time an answer was in flight on one deployment: sent
// and back in ns since the deployment's pool log epoch. A nil *inFlight
// accepts no pool point.
type inFlight struct {
	log        *poolLog
	sent, back int64
}

// checkWindow checks a window answer against the base oracle; f judges
// the insert-pool points it holds. Recall counts base points only.
func (o *oracle) checkWindow(q geom.Rect, got []geom.Point, want answer, f *inFlight) verdict {
	if len(got) == len(want.pts) && digest(got) == want.hash {
		return verdict{ok: true, hits: len(want.pts), want: len(want.pts)}
	}
	seen := make(map[geom.Point]struct{}, len(got))
	for _, p := range got {
		if !q.Contains(p) {
			return verdict{why: "window result outside the window"}
		}
		if why := o.storedWhy(p, f, seen); why != "" {
			return verdict{why: "window " + why}
		}
	}
	return verdict{ok: true, hits: overlap(got, want.pts), want: len(want.pts)}
}

// checkKNN checks a kNN answer: at most k distinct stored points sorted
// by distance. Recall is measured against the base oracle; when live
// inserts take m of the k places, the base part must be the true
// nearest k-m base points.
func (o *oracle) checkKNN(q geom.Point, k int, got []geom.Point, want answer, f *inFlight) verdict {
	if len(got) > k {
		return verdict{why: "kNN returned more than k points"}
	}
	for i := 1; i < len(got); i++ {
		if q.Dist2(got[i]) < q.Dist2(got[i-1]) {
			return verdict{why: "kNN result not sorted by distance"}
		}
	}
	if len(got) == len(want.pts) && digest(got) == want.hash {
		return verdict{ok: true, hits: len(want.pts), want: len(want.pts)}
	}
	pool := 0
	seen := make(map[geom.Point]struct{}, len(got))
	for _, p := range got {
		if why := o.storedWhy(p, f, seen); why != "" {
			return verdict{why: "kNN " + why}
		}
		if o.stored[p] != 0 {
			pool++
		}
	}
	base := want.pts
	if pool <= len(base) {
		base = base[:len(base)-pool]
	}
	return verdict{ok: true, hits: overlap(got, base), want: len(base)}
}

// checkOrdered checks a distance-ordered, LIMIT-ed window: distinct
// stored points inside the window, sorted by distance to the centre, at
// most limit. Recall is against the limit nearest oracle points.
func (o *oracle) checkOrdered(st sqlStmt, r geom.Rect, got []geom.Point, want answer) verdict {
	if len(got) > sqlLimit {
		return verdict{why: "ordered window returned more than LIMIT rows"}
	}
	seen := make(map[geom.Point]struct{}, len(got))
	for i, p := range got {
		if !r.Contains(p) {
			return verdict{why: "ordered window result outside the window"}
		}
		if why := o.storedWhy(p, nil, seen); why != "" {
			return verdict{why: "ordered window " + why}
		}
		if i > 0 && st.center.Dist2(p) < st.center.Dist2(got[i-1]) {
			return verdict{why: "ordered window not sorted by distance"}
		}
	}
	top := append([]geom.Point(nil), want.pts...)
	index.SortByDistance(top, st.center)
	if len(top) > sqlLimit {
		top = top[:sqlLimit]
	}
	return verdict{ok: true, hits: overlap(got, top), want: len(top)}
}

// storedWhy says what is wrong with p as one point of an answer that was
// in flight during f, or "" when nothing is: p must be new to seen (and
// is added to it), and a base point, or a pool point whose insert into
// this deployment was sent before the answer came back and whose delete
// was not acknowledged before the query was sent.
func (o *oracle) storedWhy(p geom.Point, f *inFlight, seen map[geom.Point]struct{}) string {
	if _, dup := seen[p]; dup {
		return "result repeats a point"
	}
	seen[p] = struct{}{}
	i, ok := o.stored[p]
	switch {
	case !ok:
		return "result is not a stored point"
	case i == 0:
		return ""
	case f == nil:
		return "result holds an insert-pool point never inserted here"
	}
	if ins := f.log.ins[i-1].Load(); ins == 0 || ins > f.back {
		return "result holds a point not inserted into this deployment before the answer came back"
	}
	if del := f.log.del[i-1].Load(); del != 0 && del < f.sent {
		return "result holds a point whose delete was acknowledged before the query was sent"
	}
	return ""
}

// overlap counts the points of want that got contains, each once.
func overlap(got, want []geom.Point) int {
	if len(want) == 0 {
		return 0
	}
	set := make(map[geom.Point]struct{}, len(want))
	for _, p := range want {
		set[p] = struct{}{}
	}
	n := 0
	for _, p := range got {
		if _, ok := set[p]; ok {
			n++
			delete(set, p)
		}
	}
	return n
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank rule;
// xs is sorted in place.
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
