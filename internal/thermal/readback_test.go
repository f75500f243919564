package thermal

import (
	"math"
	"math/rand"
	"testing"

	"chiplet25d/internal/geom"
)

// fullScanOverRect is the readback reference: visit every chip-layer cell
// in row-major order and keep those whose centers pass ContainsPoint.
func fullScanOverRect(r *Result, rc geom.Rect, max bool) float64 {
	g := r.model.grid
	chip := r.ChipT()
	best := math.Inf(-1)
	sum, n := 0.0, 0
	for iy := 0; iy < g.Ny; iy++ {
		for ix := 0; ix < g.Nx; ix++ {
			cx, cy := g.CellRect(ix, iy).Center()
			if !rc.ContainsPoint(cx, cy) {
				continue
			}
			t := chip[g.Index(ix, iy)]
			if t > best {
				best = t
			}
			sum += t
			n++
		}
	}
	if n == 0 {
		cx, cy := rc.Center()
		ix, iy := g.CellAt(cx, cy)
		return chip[g.Index(ix, iy)]
	}
	if max {
		return best
	}
	return sum / float64(n)
}

// readbackResult wraps a random chip-layer field on grid g in a Result, so
// the readback can be exercised without a solve.
func readbackResult(g geom.Grid, rng *rand.Rand) *Result {
	m := &Model{grid: g, nCells: g.NumCells()}
	t := make([]float64, g.NumCells())
	for i := range t {
		t[i] = 45 + 50*rng.Float64()
	}
	return &Result{T: t, model: m}
}

// readbackRects draws rectangles that stress the window bound: sub-cell
// rectangles, edges exactly on cell boundaries and cell centers, rectangles
// partly or fully off the grid, and generic ones.
func readbackRects(g geom.Grid, rng *rand.Rand, n int) []geom.Rect {
	cw, ch := g.CellW(), g.CellH()
	rects := make([]geom.Rect, 0, n)
	for len(rects) < n {
		var r geom.Rect
		switch rng.Intn(6) {
		case 0: // sub-cell
			r = geom.Rect{X: rng.Float64() * g.W, Y: rng.Float64() * g.H,
				W: rng.Float64() * cw, H: rng.Float64() * ch}
		case 1: // edges on cell boundaries
			ix, iy := rng.Intn(g.Nx), rng.Intn(g.Ny)
			x0, y0 := float64(ix)*cw, float64(iy)*ch
			x1 := float64(ix+1+rng.Intn(g.Nx-ix)) * cw
			y1 := float64(iy+1+rng.Intn(g.Ny-iy)) * ch
			r = geom.Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
		case 2: // edges on cell centers
			ix, iy := rng.Intn(g.Nx), rng.Intn(g.Ny)
			x0, y0 := g.CellRect(ix, iy).Center()
			x1, y1 := g.CellRect(ix+rng.Intn(g.Nx-ix), iy+rng.Intn(g.Ny-iy)).Center()
			r = geom.Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
		case 3: // partly off the grid
			r = geom.Rect{X: (rng.Float64() - 0.5) * g.W, Y: (rng.Float64()*1.5 - 0.25) * g.H,
				W: rng.Float64() * g.W, H: rng.Float64() * g.H}
		case 4: // fully off the grid
			x := g.W + rng.Float64()*g.W
			if rng.Intn(2) == 0 {
				x = -x
			}
			r = geom.Rect{X: x, Y: rng.Float64() * g.H, W: rng.Float64() * g.W, H: rng.Float64() * g.H}
		default: // generic
			x, y := rng.Float64()*g.W, rng.Float64()*g.H
			r = geom.Rect{X: x, Y: y, W: rng.Float64() * (g.W - x), H: rng.Float64() * (g.H - y)}
		}
		rects = append(rects, r)
	}
	inf := math.Inf(1)
	return append(rects,
		geom.Rect{X: 0, Y: 0, W: g.W, H: g.H},
		geom.Rect{X: -inf, Y: -inf, W: inf, H: inf},
		geom.Rect{X: 0, Y: 0, W: inf, H: g.H / 2},
		geom.Rect{X: math.NaN(), Y: 0, W: g.W, H: g.H},
		geom.Rect{X: g.W / 3, Y: g.H / 3, W: -1, H: 2})
}

// TestOverRectMatchesFullScan pins the bounded readback: on 16/32/64 grids
// with non-square footprints (and a non-square grid), MaxOverRect and
// AvgOverRect over the CenterWindow must equal the full-scan reference bit
// for bit.
func TestOverRectMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := [][2]int{{16, 16}, {32, 32}, {64, 64}, {16, 32}}
	for _, d := range dims {
		for trial := 0; trial < 3; trial++ {
			w := 10 + 40*rng.Float64()
			h := w * (0.5 + rng.Float64())
			g, err := geom.NewGrid(d[0], d[1], w, h)
			if err != nil {
				t.Fatal(err)
			}
			res := readbackResult(g, rng)
			for _, rc := range readbackRects(g, rng, 400) {
				for _, max := range []bool{true, false} {
					got := res.overRect(rc, max)
					want := fullScanOverRect(res, rc, max)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%dx%d grid over %.4gx%.4g mm, rect %+v, max=%v: got %v, full scan %v",
							d[0], d[1], w, h, rc, max, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkReadback256 times one leakage-loop readback pass: AvgOverRect
// over the 256 core rectangles of a 16-chiplet organization on the 64x64
// production grid.
func BenchmarkReadback256(b *testing.B) {
	g, err := geom.NewGrid(64, 64, 50, 50)
	if err != nil {
		b.Fatal(err)
	}
	res := readbackResult(g, rand.New(rand.NewSource(1)))
	var cores []geom.Rect
	for iy := 0; iy < 16; iy++ {
		for ix := 0; ix < 16; ix++ {
			cores = append(cores, geom.Rect{X: 1 + 3*float64(ix), Y: 1 + 3*float64(iy), W: 2.5, H: 2.5})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cores {
			readbackSink += res.AvgOverRect(c)
		}
	}
}

// readbackSink keeps BenchmarkReadback256's reads from being optimized away.
var readbackSink float64
