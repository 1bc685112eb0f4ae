package core

import (
	"math"
	"math/rand"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
	"rsmi/internal/workload"
)

// ungatedFind is corner refinement without the block-MBR gate: every block
// of [lo, hi] is searched point by point.
func ungatedFind(t *RSMI, q geom.Point, lo, hi int) (blockID, baseID int, found bool) {
	t.scanRange(lo, hi, func(b *store.Block, base int) bool {
		if b.Find(q) >= 0 {
			blockID, baseID, found = b.ID, base, true
			return false
		}
		return true
	})
	return blockID, baseID, found
}

// ungatedWindow is Algorithm 2 with ungated corner refinement.
func ungatedWindow(t *RSMI, q geom.Rect) []geom.Point {
	corners := []geom.Point{geom.Pt(q.MinX, q.MinY), geom.Pt(q.MaxX, q.MaxY)}
	if t.opts.Curve != sfc.Z {
		corners = append(corners, geom.Pt(q.MinX, q.MaxY), geom.Pt(q.MaxX, q.MinY))
	}
	begin, end, any := math.MaxInt, -1, false
	for _, c := range corners {
		lo, hi, ok := t.locate(c)
		if !ok {
			continue
		}
		any = true
		if _, base, found := ungatedFind(t, c, lo, hi); found {
			lo, hi = base, base
		}
		begin, end = min(begin, lo), max(end, hi)
	}
	var out []geom.Point
	if !any || end < begin {
		return out
	}
	t.scanRange(begin, end, func(b *store.Block, _ int) bool {
		if t.blockMBR[b.ID].Intersects(q) {
			b.Points(func(p geom.Point) {
				if q.Contains(p) {
					out = append(out, p)
				}
			})
		}
		return true
	})
	return out
}

// TestMBRGatedRefinementChangesNothing pins the block-MBR gate on corner
// and point refinement: window answers, point answers and block-access
// counts equal those of ungated refinement, on both curves and after
// inserts and deletes. The gate skips only the point comparisons; the
// block read is still counted, keeping access figures comparable with
// the paper's.
func TestMBRGatedRefinementChangesNothing(t *testing.T) {
	for _, curve := range []sfc.Kind{sfc.Hilbert, sfc.Z} {
		opts := testOptions()
		opts.Curve = curve
		pts := dataset.Generate(dataset.Skewed, 3000, 71)
		idx := New(pts, opts)
		rng := rand.New(rand.NewSource(73))

		windows := workload.Windows(pts, 60, 0.001, 1, 75)
		// Windows with a stored point as a corner take the exact-block
		// branch of the refinement.
		for i := 0; i < 60; i++ {
			p := pts[rng.Intn(len(pts))]
			w, h := rng.Float64()*0.05, rng.Float64()*0.05
			windows = append(windows,
				geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X + w, MaxY: p.Y + h},
				geom.Rect{MinX: p.X - w, MinY: p.Y - h, MaxX: p.X, MaxY: p.Y})
		}
		probes := append(append([]geom.Point(nil), pts[:200]...), workload.InsertPoints(pts, 100, 77)...)

		check := func(stage string) {
			t.Helper()
			for i, q := range windows {
				before := idx.Accesses()
				want := ungatedWindow(idx, q)
				wantAcc := idx.Accesses() - before
				got := idx.WindowQuery(q)
				gotAcc := idx.Accesses() - before - wantAcc
				if gotAcc != wantAcc {
					t.Fatalf("%v %s window %d: %d block accesses, ungated %d", curve, stage, i, gotAcc, wantAcc)
				}
				if len(got) != len(want) {
					t.Fatalf("%v %s window %d: %d points, ungated %d", curve, stage, i, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%v %s window %d: point %d is %v, ungated %v", curve, stage, i, j, got[j], want[j])
					}
				}
			}
			for i, p := range probes {
				before := idx.Accesses()
				lo, hi, ok := idx.locate(p)
				_, _, want := ungatedFind(idx, p, lo, hi)
				wantAcc := idx.Accesses() - before
				got := idx.PointQuery(p)
				if gotAcc := idx.Accesses() - before - wantAcc; got != (ok && want) || gotAcc != wantAcc {
					t.Fatalf("%v %s probe %d: found %v with %d accesses, ungated %v with %d",
						curve, stage, i, got, gotAcc, ok && want, wantAcc)
				}
			}
		}

		check("built")
		for _, p := range workload.InsertPoints(pts, 800, 79) {
			idx.Insert(p)
		}
		check("inserted")
		for _, p := range pts[:600] {
			if !idx.Delete(p) {
				t.Fatalf("%v: delete of stored %v found nothing", curve, p)
			}
		}
		check("deleted")
	}
}
