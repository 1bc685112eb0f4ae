package core

import (
	"math"

	"rsmi/internal/geom"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
)

// locate is Algorithm 1's model part: it descends to the leaf model for q
// and returns the predicted global block id with the leaf's error bounds as
// a clamped scan range [lo, hi] over base blocks.
func (t *RSMI) locate(q geom.Point) (lo, hi int, ok bool) {
	leaf := t.leafFor(q)
	if leaf == nil {
		return 0, -1, false
	}
	local := leaf.predictClamped(q, leaf.numBlocks)
	lo = leaf.firstBlock + local - leaf.errDown
	hi = leaf.firstBlock + local + leaf.errUp
	// The true block of any point in this leaf lies within the leaf's base
	// range, so the scan clamps to it.
	if lo < leaf.firstBlock {
		lo = leaf.firstBlock
	}
	if last := leaf.firstBlock + leaf.numBlocks - 1; hi > last {
		hi = last
	}
	return lo, hi, true
}

// scanRange walks the block list from base block `begin` through base block
// `end` inclusive, visiting every base block in between and every inserted
// overflow block chained among them. fn receives each block and the id of
// the base block whose chain it belongs to; returning false stops the scan.
func (t *RSMI) scanRange(begin, end int, fn func(b *store.Block, base int) bool) {
	if begin > end || begin < 0 || t.baseBlocks == 0 {
		return
	}
	if end >= t.baseBlocks {
		end = t.baseBlocks - 1
	}
	cur := begin
	base := begin
	for cur != store.NilBlock {
		b := t.store.Read(cur)
		if b == nil {
			return
		}
		if !b.Inserted {
			base = b.ID
		}
		if !fn(b, base) {
			return
		}
		next := b.Next
		if next == store.NilBlock {
			return
		}
		nb := t.store.Peek(next)
		if !nb.Inserted && nb.ID > end {
			return
		}
		cur = next
	}
}

// PointQuery implements Algorithm 1: descend the models, then scan the
// error-bounded block range (and any overflow chains) for a point with q's
// exact coordinates. It implements index.Index and never returns a false
// negative for indexed points.
//
// This context-free form is the implementation layer: PointQueryContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
func (t *RSMI) PointQuery(q geom.Point) bool {
	_, _, found := t.findPoint(q)
	return found
}

// findPoint returns the block id and slot holding q.
func (t *RSMI) findPoint(q geom.Point) (blockID, slot int, found bool) {
	lo, hi, ok := t.locate(q)
	if !ok {
		return 0, 0, false
	}
	blockID, _, slot, found = t.findPointIn(q, lo, hi)
	return blockID, slot, found
}

// windowBounds computes the base-block scan range for a window query
// (Algorithm 2, lines 1–10). For Hilbert curves the extreme curve values in
// the window lie on its boundary, so the four corners are used heuristically
// (§4.2); for Z-curves the bottom-left and top-right corners are exact.
func (t *RSMI) windowBounds(q geom.Rect) (begin, end int, any bool) {
	corners := [4]geom.Point{
		geom.Pt(q.MinX, q.MinY), geom.Pt(q.MaxX, q.MaxY),
		geom.Pt(q.MinX, q.MaxY), geom.Pt(q.MaxX, q.MinY),
	}
	n := len(corners)
	if t.opts.Curve == sfc.Z {
		n = 2
	}
	begin, end = math.MaxInt, -1
	for _, c := range corners[:n] {
		lo, hi, ok := t.locate(c)
		if !ok {
			continue
		}
		any = true
		// If the corner itself is indexed, its actual block is an exact
		// bound; otherwise fall back to the error-bounded range.
		if _, base, _, found := t.findPointIn(c, lo, hi); found {
			lo, hi = base, base
		}
		if lo < begin {
			begin = lo
		}
		if hi > end {
			end = hi
		}
	}
	return begin, end, any
}

// findPointIn scans [lo, hi] for q and returns the block holding it, the
// base block id of that block's chain (what the window scan bounds need),
// and q's slot. A block whose cached MBR misses q cannot hold it, so its
// points are not compared; the block read is still counted.
func (t *RSMI) findPointIn(q geom.Point, lo, hi int) (blockID, baseID, slot int, found bool) {
	t.scanRange(lo, hi, func(b *store.Block, base int) bool {
		if !t.blockMBR[b.ID].Contains(q) {
			return true
		}
		if i := b.Find(q); i >= 0 {
			blockID, baseID, slot, found = b.ID, base, i, true
			return false
		}
		return true
	})
	return blockID, baseID, slot, found
}

// WindowQuery implements Algorithm 2: bound the block range with corner
// point queries, scan it, and filter by the window. The answer has no false
// positives; it may miss points whose blocks fall outside the predicted
// range (the approximate behaviour evaluated in §6.2.3, recall > 87%).
//
// This context-free form is the implementation layer: WindowQueryContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
func (t *RSMI) WindowQuery(q geom.Rect) []geom.Point {
	return t.windowQueryAppend(nil, q)
}

// windowQueryAppend is WindowQuery appending into dst (which may be nil),
// the shared implementation behind WindowQuery and WindowQueryAppend.
func (t *RSMI) windowQueryAppend(dst []geom.Point, q geom.Rect) []geom.Point {
	begin, end, ok := t.windowBounds(q)
	if !ok || end < begin {
		return dst
	}
	out := dst
	t.scanRange(begin, end, func(b *store.Block, _ int) bool {
		// Skip blocks whose cached MBR misses the window without touching
		// their points (cheap filter; the block read is already counted).
		if !t.blockMBR[b.ID].Intersects(q) {
			return true
		}
		b.Points(func(p geom.Point) {
			if q.Contains(p) {
				out = append(out, p)
			}
		})
		return true
	})
	return out
}

// KNN implements Algorithm 3: an expanding search region sized by the
// learned per-dimension CDFs, probed with window queries. Results are
// approximate (recall > 88% in §6.2.4) and sorted by distance.
//
// This context-free form is the implementation layer: KNNContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
func (t *RSMI) KNN(q geom.Point, k int) []geom.Point {
	if k <= 0 || t.n == 0 {
		return nil
	}
	if k > t.n {
		k = t.n
	}
	// Initial region: a k/n-fraction rectangle scaled by the skew
	// parameters αx, αy (Eq. 6).
	frac := math.Sqrt(float64(k) / float64(t.n))
	width := t.pmfX.Alpha(q.X, t.opts.Delta) * frac
	height := t.pmfY.Alpha(q.Y, t.opts.Delta) * frac

	pq := newKNNHeap(k, q)
	// scanned holds the base-block ranges of earlier rounds: each block is
	// searched at most once, keyed by the base block of its chain.
	var buf [4][2]int
	scanned := buf[:0]

	const maxRounds = 64
	for round := 0; round < maxRounds; round++ {
		wq := geom.RectAround(q, width, height)
		begin, end, ok := t.windowBounds(wq)
		if ok {
			t.scanRange(begin, end, func(b *store.Block, base int) bool {
				for _, r := range scanned {
					if base >= r[0] && base <= r[1] {
						return true
					}
				}
				// Prune blocks that cannot improve the current k-th NN
				// (MINDIST test of Algorithm 3, line 7).
				if pq.Len() >= k && t.blockMBR[b.ID].MinDist2(q) >= pq.worst() {
					return true
				}
				b.Points(func(p geom.Point) { pq.offer(p) })
				return true
			})
			scanned = append(scanned, [2]int{begin, end})
		}
		if pq.Len() < k {
			width *= 2
			height *= 2
			continue
		}
		kth := math.Sqrt(pq.worst())
		if kth > math.Sqrt(width*width+height*height)/2 {
			width = 2 * kth
			height = 2 * kth
			continue
		}
		break
	}
	return pq.sorted()
}

// knnHeap is a bounded max-heap of the k best candidates by distance to q.
type knnHeap struct {
	q    geom.Point
	k    int
	dist []float64 // squared distances, max-heap order
	pts  []geom.Point
}

func newKNNHeap(k int, q geom.Point) *knnHeap {
	return &knnHeap{q: q, k: k, dist: make([]float64, 0, k), pts: make([]geom.Point, 0, k)}
}

func (h *knnHeap) Len() int { return len(h.pts) }

// worst returns the squared distance of the current k-th candidate.
func (h *knnHeap) worst() float64 {
	if len(h.dist) == 0 {
		return math.Inf(1)
	}
	return h.dist[0]
}

// offer adds p if it improves the k best. A full heap replaces its root
// and sifts it down once.
func (h *knnHeap) offer(p geom.Point) {
	d := h.q.Dist2(p)
	if len(h.pts) < h.k {
		h.push(p, d)
		return
	}
	if d >= h.dist[0] {
		return
	}
	h.dist[0], h.pts[0] = d, p
	h.siftDown()
}

func (h *knnHeap) push(p geom.Point, d float64) {
	h.pts = append(h.pts, p)
	h.dist = append(h.dist, d)
	i := len(h.dist) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.dist[parent] >= h.dist[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *knnHeap) pop() {
	last := len(h.dist) - 1
	h.swap(0, last)
	h.dist = h.dist[:last]
	h.pts = h.pts[:last]
	h.siftDown()
}

// siftDown restores the max-heap order below a changed root.
func (h *knnHeap) siftDown() {
	n := len(h.dist)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.dist[l] > h.dist[big] {
			big = l
		}
		if r < n && h.dist[r] > h.dist[big] {
			big = r
		}
		if big == i {
			break
		}
		h.swap(i, big)
		i = big
	}
}

func (h *knnHeap) swap(i, j int) {
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
	h.pts[i], h.pts[j] = h.pts[j], h.pts[i]
}

// sorted drains the heap into ascending-distance order in place: each pop
// parks the current maximum just past the shrinking heap.
func (h *knnHeap) sorted() []geom.Point {
	out := h.pts
	for len(h.pts) > 1 {
		h.pop()
	}
	return out
}
