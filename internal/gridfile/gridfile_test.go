package gridfile

import (
	"math"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/index/indextest"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, indextest.Config{
		Build: func(pts []geom.Point) index.Index {
			return New(pts, 50)
		},
		ExactWindow:     true,
		ExactKNN:        true,
		SupportsUpdates: true,
	})
}

func TestGridSideMatchesPaperFormula(t *testing.T) {
	// §6.1: a sqrt(n/B) x sqrt(n/B) grid.
	pts := dataset.Generate(dataset.Uniform, 10000, 1)
	g := New(pts, 100)
	want := int(math.Ceil(math.Sqrt(10000.0 / 100)))
	if g.side != want {
		t.Errorf("side = %d, want %d", g.side, want)
	}
}

func TestUniformFillsOneBlockPerCell(t *testing.T) {
	// Under a uniform distribution each cell holds about B points (one
	// block per cell, §6.1).
	pts := dataset.Generate(dataset.Uniform, 10000, 2)
	g := New(pts, 100)
	multi := 0
	for _, ids := range g.cells {
		if len(ids) > 2 {
			multi++
		}
	}
	if frac := float64(multi) / float64(len(g.cells)); frac > 0.1 {
		t.Errorf("%.2f of cells need >2 blocks on uniform data", frac)
	}
}

func TestSkewConcentratesBlocks(t *testing.T) {
	// On skewed data some cells need many chained blocks — the cause of
	// Grid's poor block-access numbers in Fig. 6b.
	pts := dataset.Generate(dataset.OSMLike, 10000, 3)
	g := New(pts, 100)
	max := 0
	for _, ids := range g.cells {
		if len(ids) > max {
			max = len(ids)
		}
	}
	if max < 3 {
		t.Errorf("max blocks per cell = %d; expected chaining under skew", max)
	}
}

func TestCellOfClampsOutOfRange(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 1000, 4)
	g := New(pts, 100)
	for _, p := range []geom.Point{{X: -5, Y: 0.5}, {X: 5, Y: 0.5}, {X: 0.5, Y: -5}, {X: 0.5, Y: 5}} {
		c := g.cellOf(p)
		if c < 0 || c >= len(g.cells) {
			t.Errorf("cellOf(%v) = %d out of range", p, c)
		}
	}
}

func TestInsertAppendsToCellChain(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 500, 5)
	g := New(pts, 10)
	p := geom.Pt(0.5, 0.5)
	c := g.cellOf(p)
	before := len(g.cells[c])
	// Fill the cell's last block, then one more insert must chain a block.
	for i := 0; i < 25; i++ {
		g.Insert(geom.Pt(0.5+float64(i)*1e-6, 0.5))
	}
	if len(g.cells[c]) <= before {
		t.Errorf("cell chain did not grow: %d -> %d", before, len(g.cells[c]))
	}
}

func TestEmptyGrid(t *testing.T) {
	g := New(nil, 100)
	if g.Len() != 0 {
		t.Errorf("Len = %d", g.Len())
	}
	if g.PointQuery(geom.Pt(0.5, 0.5)) {
		t.Error("empty grid found a point")
	}
	if got := g.WindowQuery(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}); len(got) != 0 {
		t.Error("empty grid window returned points")
	}
	if got := g.KNN(geom.Pt(0.5, 0.5), 5); got != nil {
		t.Error("empty grid kNN returned points")
	}
	g.Insert(geom.Pt(0.3, 0.3))
	if !g.PointQuery(geom.Pt(0.3, 0.3)) {
		t.Error("insert into empty grid failed")
	}
}

func TestStatsCountsCellTable(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 5000, 6)
	g := New(pts, 100)
	s := g.Stats()
	if s.Height != 1 {
		t.Errorf("Grid height = %d, want 1", s.Height)
	}
	if s.SizeBytes <= g.store.SizeBytes() {
		t.Error("Stats must include the cell table overhead")
	}
}

// TestKNNHugeK pins that a k above the point count returns every point in
// distance order, however large k is: the candidate-pool bound 4k once
// overflowed, returning nothing for k = 1<<62 and panicking for 3<<60.
func TestKNNHugeK(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 500, 5)
	g := New(pts, 20)
	q := geom.Pt(0.5, 0.5)
	want := append([]geom.Point(nil), pts...)
	index.SortByDistance(want, q)
	for _, k := range []int{len(pts) + 1, 1 << 62, 3 << 60} {
		got := g.KNN(q, k)
		if len(got) != len(pts) {
			t.Fatalf("k=%d: %d points, want all %d", k, len(got), len(pts))
		}
		for i := range got {
			if q.Dist2(got[i]) != q.Dist2(want[i]) {
				t.Fatalf("k=%d: point %d at distance² %v, want %v", k, i, q.Dist2(got[i]), q.Dist2(want[i]))
			}
		}
	}
}
