package rsmi_test

import (
	"sync"
	"testing"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/workload"
)

var concurrentOpts = rsmi.Options{
	BlockCapacity:      50,
	PartitionThreshold: 1000,
	Epochs:             15,
	LearningRate:       0.1,
	Seed:               1,
}

func buildConcurrent(t testing.TB) (rsmi.Engine, []rsmi.Point) {
	t.Helper()
	pts := dataset.Generate(dataset.Skewed, 4000, 21)
	return rsmi.NewConcurrent(pts, concurrentOpts), pts
}

func TestConcurrentParallelQueries(t *testing.T) {
	c, pts := buildConcurrent(t)
	qs := workload.KNNPoints(pts, 200, 22)
	ws := workload.Windows(pts, 200, 0.01, 1, 23)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !must(c.PointQueryContext(bg, pts[(g*997+i)%len(pts)])) {
					errs <- "point query false negative under concurrency"
					return
				}
				w := ws[(g+i)%len(ws)]
				for _, p := range must(c.WindowQueryContext(bg, w)) {
					if !w.Contains(p) {
						errs <- "window false positive under concurrency"
						return
					}
				}
				if got := must(c.KNNContext(bg, qs[(g+i)%len(qs)], 5)); len(got) != 5 {
					errs <- "kNN wrong cardinality under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestConcurrentMixedReadWrite(t *testing.T) {
	c, pts := buildConcurrent(t)
	ins := workload.InsertPoints(pts, 2000, 24)
	var wg sync.WaitGroup
	// Writer goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, p := range ins {
			c.InsertContext(bg, p)
			if i%3 == 0 {
				c.DeleteContext(bg, pts[i])
			}
		}
	}()
	// Reader goroutines.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.PointQueryContext(bg, pts[(g*31+i)%len(pts)])
				c.Len()
				if i%50 == 0 {
					c.WindowQueryContext(bg, rsmi.RectAround(rsmi.Pt(0.5, 0.2), 0.1, 0.1))
				}
			}
		}(g)
	}
	wg.Wait()
	// Every inserted point must now be present.
	for _, p := range ins {
		if !must(c.PointQueryContext(bg, p)) {
			t.Fatalf("inserted point %v lost under concurrent load", p)
		}
	}
}

func TestConcurrentRebuild(t *testing.T) {
	c, pts := buildConcurrent(t)
	for _, p := range workload.InsertPoints(pts, 500, 25) {
		c.InsertContext(bg, p)
	}
	before := c.Len()
	c.RebuildContext(bg)
	if c.Len() != before {
		t.Fatalf("rebuild changed Len: %d -> %d", before, c.Len())
	}
	if !must(c.PointQueryContext(bg, pts[0])) {
		t.Fatal("point lost after rebuild")
	}
	if s := c.Stats(); s.Name != "RSMI" {
		t.Errorf("Stats.Name = %q", s.Name)
	}
}

// TestConcurrentRebuildRetrains checks RebuildContext really retrains the
// wrapped RSMI: after inserts the block layout has drifted from a fresh
// build over the same points, and the rebuild restores exactly the fresh
// build's layout. A no-op rebuild would leave the drifted layout.
func TestConcurrentRebuildRetrains(t *testing.T) {
	c, pts := buildConcurrent(t)
	ins := workload.InsertPoints(pts, 500, 25)
	for _, p := range ins {
		c.InsertContext(bg, p)
	}
	fresh := rsmi.New(append(append([]rsmi.Point(nil), pts...), ins...), concurrentOpts).Stats()
	drifted := c.Stats()
	if drifted.Blocks == fresh.Blocks && drifted.SizeBytes == fresh.SizeBytes {
		t.Fatalf("inserts left the layout of a fresh build (%d blocks, %d bytes); the test cannot tell a rebuild from a no-op",
			fresh.Blocks, fresh.SizeBytes)
	}
	if err := c.RebuildContext(bg); err != nil {
		t.Fatal(err)
	}
	got := c.Stats()
	if got.Blocks != fresh.Blocks || got.SizeBytes != fresh.SizeBytes || got.Models != fresh.Models {
		t.Fatalf("after rebuild: %d blocks, %d bytes, %d models; fresh build: %d, %d, %d (before rebuild: %d, %d, %d)",
			got.Blocks, got.SizeBytes, got.Models, fresh.Blocks, fresh.SizeBytes, fresh.Models,
			drifted.Blocks, drifted.SizeBytes, drifted.Models)
	}
	if got.BuildTime == drifted.BuildTime {
		t.Fatalf("BuildTime unchanged (%v) across rebuild", got.BuildTime)
	}
}
