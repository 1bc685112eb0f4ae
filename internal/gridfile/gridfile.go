// Package gridfile implements the Grid File baseline of §6.1 [33]: the data
// space is partitioned with a regular √(n/B) × √(n/B) grid (one block per
// cell under a uniform distribution), points are assigned to cells by their
// coordinates, and stored by cell. A cell table maps grid cells to their
// data blocks; the table is an in-memory directory whose lookups are free,
// while the data blocks are counted accesses — which is exactly why Grid
// shows the paper's highest block-access counts on skewed data (Fig. 6b)
// while staying time-competitive on uniform data.
package gridfile

import (
	"math"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/store"
)

// Grid is the Grid File baseline.
type Grid struct {
	store *store.Manager
	norm  geom.Rect
	side  int
	// cells[cy*side+cx] lists the block ids of the cell, in fill order.
	cells [][]int
	n     int
	built time.Duration
}

var _ index.Index = (*Grid)(nil)

// New builds a Grid File with a √(n/B) × √(n/B) grid over the points'
// bounding box.
func New(pts []geom.Point, blockCapacity int) *Grid {
	start := time.Now()
	g := &Grid{
		store: store.NewManager(blockCapacity),
		norm:  geom.BoundingRect(pts),
		n:     len(pts),
	}
	b := g.store.Capacity()
	g.side = int(math.Ceil(math.Sqrt(float64(len(pts)) / float64(b))))
	if g.side < 1 {
		g.side = 1
	}
	g.cells = make([][]int, g.side*g.side)

	// Bucket points per cell, then pack each cell's points.
	buckets := make([][]geom.Point, g.side*g.side)
	for _, p := range pts {
		c := g.cellOf(p)
		buckets[c] = append(buckets[c], p)
	}
	for c, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		first, count := g.store.Pack(bucket)
		for id := first; id < first+count; id++ {
			g.cells[c] = append(g.cells[c], id)
		}
	}
	g.built = time.Since(start)
	return g
}

// cellOf maps p to its cell index, clamping to the grid (points inserted
// outside the build-time bounding box go to border cells).
func (g *Grid) cellOf(p geom.Point) int {
	cx := g.axisCell(p.X, g.norm.MinX, g.norm.MaxX)
	cy := g.axisCell(p.Y, g.norm.MinY, g.norm.MaxY)
	return cy*g.side + cx
}

func (g *Grid) axisCell(v, lo, hi float64) int {
	if hi <= lo {
		return 0
	}
	c := int((v - lo) / (hi - lo) * float64(g.side))
	if c < 0 {
		return 0
	}
	if c >= g.side {
		return g.side - 1
	}
	return c
}

// cellRect returns the spatial extent of cell (cx, cy).
func (g *Grid) cellRect(cx, cy int) geom.Rect {
	w := (g.norm.MaxX - g.norm.MinX) / float64(g.side)
	h := (g.norm.MaxY - g.norm.MinY) / float64(g.side)
	return geom.Rect{
		MinX: g.norm.MinX + float64(cx)*w,
		MinY: g.norm.MinY + float64(cy)*h,
		MaxX: g.norm.MinX + float64(cx+1)*w,
		MaxY: g.norm.MinY + float64(cy+1)*h,
	}
}

// Name implements index.Index with the paper's label.
func (g *Grid) Name() string { return "Grid" }

// PointQuery implements index.Index: scan the blocks of q's cell.
func (g *Grid) PointQuery(q geom.Point) bool {
	_, _, ok := g.find(q)
	return ok
}

func (g *Grid) find(q geom.Point) (blockID, slot int, ok bool) {
	for _, id := range g.cells[g.cellOf(q)] {
		b := g.store.Read(id)
		if i := b.Find(q); i >= 0 {
			return id, i, true
		}
	}
	return 0, 0, false
}

// WindowQuery implements index.Index: scan every block of every cell
// overlapping the window. Exact.
func (g *Grid) WindowQuery(q geom.Rect) []geom.Point {
	if g.n == 0 {
		return nil
	}
	cx0 := g.axisCell(q.MinX, g.norm.MinX, g.norm.MaxX)
	cx1 := g.axisCell(q.MaxX, g.norm.MinX, g.norm.MaxX)
	cy0 := g.axisCell(q.MinY, g.norm.MinY, g.norm.MaxY)
	cy1 := g.axisCell(q.MaxY, g.norm.MinY, g.norm.MaxY)
	var out []geom.Point
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			for _, id := range g.cells[cy*g.side+cx] {
				b := g.store.Read(id)
				b.Points(func(p geom.Point) {
					if q.Contains(p) {
						out = append(out, p)
					}
				})
			}
		}
	}
	return out
}

// KNN implements index.Index with an expanding ring search over cells: the
// cells are visited ring by ring around q's cell, pruned by MINDIST against
// the current k-th candidate, which makes the result exact. The paper notes
// Grid's kNN weakness: "the kNNs may spread in multiple cells which makes it
// uncompetitive" (§6.2.4).
func (g *Grid) KNN(q geom.Point, k int) []geom.Point {
	if k <= 0 || g.n == 0 {
		return nil
	}
	// No answer holds more than n points; clamping also keeps the 4k
	// candidate-pool bound below from overflowing on a huge k.
	if k > g.n {
		k = g.n
	}
	qcx := g.axisCell(q.X, g.norm.MinX, g.norm.MaxX)
	qcy := g.axisCell(q.Y, g.norm.MinY, g.norm.MaxY)
	var cand []geom.Point
	kth := math.Inf(1)
	scanCell := func(cx, cy int) {
		for _, id := range g.cells[cy*g.side+cx] {
			b := g.store.Read(id)
			b.Points(func(p geom.Point) { cand = append(cand, p) })
		}
	}
	update := func() {
		index.SortByDistance(cand, q)
		if len(cand) > 4*k { // keep the candidate pool small
			cand = cand[:4*k]
		}
		if len(cand) >= k {
			kth = q.Dist2(cand[k-1])
		}
	}
	for ring := 0; ring < 2*g.side; ring++ {
		touched := false
		for cy := qcy - ring; cy <= qcy+ring; cy++ {
			if cy < 0 || cy >= g.side {
				continue
			}
			for cx := qcx - ring; cx <= qcx+ring; cx++ {
				if cx < 0 || cx >= g.side {
					continue
				}
				// Only the ring's border cells are new.
				if ring > 0 && cx != qcx-ring && cx != qcx+ring && cy != qcy-ring && cy != qcy+ring {
					continue
				}
				// Prune cells that cannot contain a better candidate.
				if g.cellRect(cx, cy).MinDist2(q) >= kth {
					continue
				}
				scanCell(cx, cy)
				touched = true
			}
		}
		if touched {
			update()
		}
		// Stop when the next ring cannot improve the k-th candidate.
		if len(cand) >= k {
			w := (g.norm.MaxX - g.norm.MinX) / float64(g.side)
			h := (g.norm.MaxY - g.norm.MinY) / float64(g.side)
			ringDist := float64(ring) * math.Min(w, h)
			if ringDist*ringDist >= kth {
				break
			}
		}
	}
	if len(cand) > k {
		cand = cand[:k]
	}
	return cand
}

// Insert implements index.Index: the point goes to the last block of its
// cell, or a new block when full ("Grid adds a new point p to the last
// block in the cell enclosing p", §6.2.5).
func (g *Grid) Insert(p geom.Point) {
	c := g.cellOf(p)
	ids := g.cells[c]
	if len(ids) > 0 {
		last := g.store.Read(ids[len(ids)-1])
		if last.HasSpace() {
			last.Append(p)
			g.n++
			return
		}
	}
	nb := g.store.Alloc()
	nb.Append(p)
	g.cells[c] = append(g.cells[c], nb.ID)
	g.n++
}

// Delete implements index.Index.
func (g *Grid) Delete(p geom.Point) bool {
	id, slot, ok := g.find(p)
	if !ok {
		return false
	}
	g.store.Peek(id).Delete(slot)
	g.n--
	return true
}

// Len implements index.Index.
func (g *Grid) Len() int { return g.n }

// Stats implements index.Index. The cell table contributes 8 bytes per cell
// plus 8 per block reference.
func (g *Grid) Stats() index.Stats {
	table := int64(len(g.cells)) * 8
	for _, ids := range g.cells {
		table += int64(len(ids)) * 8
	}
	return index.Stats{
		Name:      g.Name(),
		SizeBytes: g.store.SizeBytes() + table,
		Height:    1,
		Blocks:    g.store.NumBlocks(),
		BuildTime: g.built,
	}
}

// Accesses implements index.Index.
func (g *Grid) Accesses() int64 { return g.store.Accesses() }

// ResetAccesses implements index.Index.
func (g *Grid) ResetAccesses() { g.store.ResetAccesses() }
