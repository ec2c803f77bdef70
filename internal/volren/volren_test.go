package volren

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/beam"
	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/render"
	"repro/internal/vec"
)

// solidGrid returns a grid with a dense ball in the middle.
func solidGrid(t *testing.T, n int) *hybrid.Grid {
	t.Helper()
	g, err := hybrid.NewGrid(n, n, n, vec.Box(vec.New(-1, -1, -1), vec.New(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				fx := (float64(x)+0.5)/float64(n)*2 - 1
				fy := (float64(y)+0.5)/float64(n)*2 - 1
				fz := (float64(z)+0.5)/float64(n)*2 - 1
				if fx*fx+fy*fy+fz*fz < 0.5 {
					g.Set(x, y, z, 1)
				}
			}
		}
	}
	return g
}

func testTF(t *testing.T) *hybrid.LinkedTF {
	t.Helper()
	vol, err := hybrid.StepRamp(0.05, 0.2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := hybrid.NewLinkedTF(vol, hybrid.GrayMap(), 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return tf
}

func testCam(t *testing.T) render.Camera {
	t.Helper()
	cam, err := render.NewCamera(vec.New(0, 0, 4), vec.New(0, 0, 0), vec.New(0, 1, 0),
		math.Pi/3, 1, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	return cam
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, testTF(t)); err == nil {
		t.Error("accepted nil grid")
	}
	if _, err := New(solidGrid(t, 8), nil); err == nil {
		t.Error("accepted nil TF")
	}
}

func TestRenderCoversBall(t *testing.T) {
	r, err := New(solidGrid(t, 16), testTF(t))
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := render.NewFramebuffer(64, 64)
	r.Render(fb, testCam(t))
	// Center pixel must be lit, far corner must not.
	if fb.At(32, 32).A == 0 {
		t.Error("ball center not rendered")
	}
	if fb.At(1, 1).A != 0 {
		t.Error("empty corner rendered")
	}
	if r.SampleCount == 0 {
		t.Error("no samples counted")
	}
}

func TestRenderRespectsOpaqueGeometry(t *testing.T) {
	grid := solidGrid(t, 16)
	tf := testTF(t)
	cam := testCam(t)

	// Frame A: geometry in FRONT of the volume (at z = +0.9 toward the
	// camera): the red point should dominate the center pixel.
	fbA, _ := render.NewFramebuffer(64, 64)
	rastA := render.NewRasterizer(fbA, cam)
	red := hybrid.RGBA{R: 1, A: 1}
	rastA.DrawPoint(vec.New(0, 0, 0.95), 2, red)
	rA, _ := New(grid, tf)
	rA.Render(fbA, cam)

	// Frame B: geometry BEHIND the volume (z = -0.95): volume should
	// attenuate the red.
	fbB, _ := render.NewFramebuffer(64, 64)
	rastB := render.NewRasterizer(fbB, cam)
	rastB.DrawPoint(vec.New(0, 0, -0.95), 2, red)
	rB, _ := New(grid, tf)
	rB.Render(fbB, cam)

	frontRed := fbA.At(32, 32).R
	backRed := fbB.At(32, 32).R
	if frontRed <= backRed {
		t.Errorf("front-point red %v <= back-point red %v; volume/geometry interleaving wrong",
			frontRed, backRed)
	}
}

func TestEarlyTerminationReducesSamples(t *testing.T) {
	grid := solidGrid(t, 16)
	// Fully opaque TF terminates rays quickly.
	volHi, _ := hybrid.StepRamp(0.01, 0.02, 1.0)
	tfHi, _ := hybrid.NewLinkedTF(volHi, hybrid.GrayMap(), 1.0, 0.3)
	// Nearly transparent TF marches every ray through.
	volLo, _ := hybrid.StepRamp(0.01, 0.02, 0.02)
	tfLo, _ := hybrid.NewLinkedTF(volLo, hybrid.GrayMap(), 0.02, 0.3)

	cam := testCam(t)
	fb1, _ := render.NewFramebuffer(32, 32)
	r1, _ := New(grid, tfHi)
	r1.Render(fb1, cam)
	fb2, _ := render.NewFramebuffer(32, 32)
	r2, _ := New(grid, tfLo)
	r2.Render(fb2, cam)
	if r1.SampleCount >= r2.SampleCount {
		t.Errorf("opaque TF took %d samples, transparent %d; early termination missing",
			r1.SampleCount, r2.SampleCount)
	}
}

func TestSampleCountScalesWithResolution(t *testing.T) {
	// Casting a higher-resolution grid costs proportionally more
	// samples — the heart of the Fig 1 volume-vs-hybrid comparison.
	cam := testCam(t)
	tf := testTF(t)
	small, _ := New(solidGrid(t, 8), tf)
	big, _ := New(solidGrid(t, 32), tf)
	fb1, _ := render.NewFramebuffer(32, 32)
	small.Render(fb1, cam)
	fb2, _ := render.NewFramebuffer(32, 32)
	big.Render(fb2, cam)
	ratio := float64(big.SampleCount) / float64(small.SampleCount)
	if ratio < 2 {
		t.Errorf("32^3 grid took only %.2fx the samples of 8^3", ratio)
	}
}

func TestRenderHybridEndToEnd(t *testing.T) {
	// Build a small hybrid representation and render it.
	rng := rand.New(rand.NewSource(1))
	pts := make([]vec.V3, 20000)
	for i := range pts {
		if rng.Float64() < 0.8 {
			pts[i] = vec.New(rng.NormFloat64()*0.2, rng.NormFloat64()*0.2, rng.NormFloat64()*0.2)
		} else {
			pts[i] = vec.New(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1)
		}
	}
	tree, err := octree.Build(pts, octree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: 16, Budget: 4000})
	if err != nil {
		t.Fatal(err)
	}
	vol, err := hybrid.StepRamp(0.3, 0.6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := hybrid.NewLinkedTF(vol, hybrid.HeatMap(), 0.5, float64(rep.Threshold/rep.MaxLeafD))
	if err != nil {
		t.Fatal(err)
	}
	tf.Domain = hybrid.LogDomain(1e4)
	fb, _ := render.NewFramebuffer(64, 64)
	cam, err := render.LookAtBounds(rep.Bounds, vec.New(0.3, 0.2, 1), math.Pi/3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rast, vr, err := RenderHybrid(rep, tf, fb, cam, 1.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if rast.PointCount == 0 {
		t.Error("no points drawn")
	}
	if vr.SampleCount == 0 {
		t.Error("no volume samples")
	}
	if fb.CoveredPixels(0.01) == 0 {
		t.Error("hybrid render produced a black frame")
	}
}

func TestJitterChangesNothingStructural(t *testing.T) {
	grid := solidGrid(t, 16)
	tf := testTF(t)
	cam := testCam(t)
	r1, _ := New(grid, tf)
	fb1, _ := render.NewFramebuffer(32, 32)
	r1.Render(fb1, cam)
	r2, _ := New(grid, tf)
	r2.Jitter = true
	fb2, _ := render.NewFramebuffer(32, 32)
	r2.Render(fb2, cam)
	// Jitter must not change which pixels are covered, only shading.
	a := fb1.CoveredPixels(0.01)
	b := fb2.CoveredPixels(0.01)
	if a == 0 || math.Abs(float64(a-b)) > float64(a)/5 {
		t.Errorf("jitter changed coverage: %d vs %d", a, b)
	}
}

func TestRenderHybridDynamicColoring(t *testing.T) {
	// Build a hybrid representation whose points carry original indices.
	rng := rand.New(rand.NewSource(5))
	pts := make([]vec.V3, 10000)
	for i := range pts {
		if rng.Float64() < 0.8 {
			pts[i] = vec.New(rng.NormFloat64()*0.2, rng.NormFloat64()*0.2, rng.NormFloat64()*0.2)
		} else {
			pts[i] = vec.New(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1)
		}
	}
	tree, err := octree.Build(pts, octree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: 8, Budget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OrigIndex) != rep.NumPoints() {
		t.Fatalf("extract kept %d orig indices for %d points", len(rep.OrigIndex), rep.NumPoints())
	}
	tf := testTF(t)
	cam, err := render.LookAtBounds(rep.Bounds, vec.New(0.3, 0.2, 1), math.Pi/3, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Attribute: x coordinate of the ORIGINAL point; color map red-blue.
	attr := func(orig int64) float64 { return pts[orig].X }
	rb := hybrid.ColorMap{Stops: []hybrid.RGBA{{R: 1, A: 1}, {B: 1, A: 1}}}
	fb, _ := render.NewFramebuffer(96, 96)
	rast, _, err := RenderHybridDynamic(rep, tf, fb, cam, 1.5, attr, rb)
	if err != nil {
		t.Fatal(err)
	}
	if rast.PointCount == 0 {
		t.Fatal("no points drawn")
	}
	// Left half of the image should skew red, right half blue (camera
	// roughly looks down -z, x maps left-to-right).
	var leftR, leftB, rightR, rightB float64
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			c := fb.At(x, y)
			if x < 48 {
				leftR += c.R
				leftB += c.B
			} else {
				rightR += c.R
				rightB += c.B
			}
		}
	}
	if leftR <= leftB || rightB <= rightR {
		t.Errorf("dynamic coloring not spatially correlated: left(R=%.1f,B=%.1f) right(R=%.1f,B=%.1f)",
			leftR, leftB, rightR, rightB)
	}
}

func TestRenderHybridDynamicValidation(t *testing.T) {
	rep := &hybrid.Representation{Points: make([]vec.V3, 3)}
	tf := testTF(t)
	fb, _ := render.NewFramebuffer(8, 8)
	cam := testCam(t)
	if _, _, err := RenderHybridDynamic(rep, tf, fb, cam, 1, nil, hybrid.GrayMap()); err == nil {
		t.Error("nil attribute accepted")
	}
	attr := func(int64) float64 { return 0 }
	if _, _, err := RenderHybridDynamic(rep, tf, fb, cam, 1, attr, hybrid.GrayMap()); err == nil {
		t.Error("representation without orig indices accepted")
	}
}

// BenchmarkRenderStill times the still render of a live-frame-shaped
// representation: a 200k-particle beam after one lattice period,
// partitioned and extracted to a 32^3 volume with an n/10 point budget,
// rendered at 256^2. It reports the ray cast's march positions and the
// volume fetches among them.
func BenchmarkRenderStill(b *testing.B) {
	const n = 200000
	sim, err := beam.NewSim(beam.DefaultConfig(n))
	if err != nil {
		b.Fatal(err)
	}
	sim.RunPeriods(1)
	pts := make([]vec.V3, n)
	axes := [3]beam.Axis{beam.AxisX, beam.AxisY, beam.AxisZ}
	for i := range pts {
		pts[i] = sim.Particles.Point3(i, axes)
	}
	tree, err := octree.Build(pts, octree.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: 32, Budget: n / 10})
	if err != nil {
		b.Fatal(err)
	}
	tf, err := hybrid.DefaultTF(rep)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var vr *Renderer
	for i := 0; i < b.N; i++ {
		if _, _, vr, err = RenderStill(rep, tf, 256, 256, vec.New(0.4, 0.3, 1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(vr.SampleCount), "positions/op")
	b.ReportMetric(float64(vr.fetches), "fetches/op")
}
