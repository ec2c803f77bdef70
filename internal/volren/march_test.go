package volren

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/render"
	"repro/internal/vec"
)

// oracleRender is the march the empty-space skip replaced, kept
// verbatim: one fetch at every march position, serially over pixels.
// Its rays come from RayGen, which render's TestRayGenBitIdenticalToOracle
// pins to the per-pixel generator it replaced.
func oracleRender(r *Renderer, fb *render.Framebuffer, cam render.Camera) {
	voxel := r.Grid.Bounds.Size().X / float64(r.Grid.Nx)
	if s := r.Grid.Bounds.Size().Y / float64(r.Grid.Ny); s < voxel {
		voxel = s
	}
	if s := r.Grid.Bounds.Size().Z / float64(r.Grid.Nz); s < voxel {
		voxel = s
	}
	step := voxel * r.stepScale()
	refStep := voxel
	rays := cam.RayGen(fb.W, fb.H)
	var total int64
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x++ {
			total += oracleCastPixel(r, fb, cam, &rays, x, y, step, refStep)
		}
	}
	r.SampleCount = total
}

func oracleCastPixel(r *Renderer, fb *render.Framebuffer, cam render.Camera, rays *render.RayGen, x, y int, step, refStep float64) int64 {
	origin, dir := rays.Ray(x, y)
	tEnter, tExit, hit := r.Grid.Bounds.IntersectRay(origin, dir)
	if !hit || tExit <= 0 {
		return 0
	}
	if tEnter < cam.Near {
		tEnter = cam.Near
	}
	if r.Jitter {
		h := uint32(x)*374761393 + uint32(y)*668265263
		h = (h ^ (h >> 13)) * 1274126177
		tEnter += step * float64(h%1024) / 1024
	}
	zGeom := fb.DepthAt(x, y)
	geomLimit := math.Inf(1)
	if !math.IsInf(float64(zGeom), 1) {
		geomLimit = r.rayLimitForDepth(&cam, origin, dir, float64(zGeom), tEnter, tExit)
	}
	end := math.Min(tExit, geomLimit)
	var cr, cg, cb, ca float64
	samples := int64(0)
	for t := tEnter; t < end && ca < 0.99; t += step {
		p := origin.Add(dir.Scale(t))
		d := r.Grid.Sample(p)
		samples++
		if d <= 0 {
			continue
		}
		s := r.TF.VolumeRGBA(d)
		if s.A <= 0 {
			continue
		}
		alpha := 1 - math.Pow(1-s.A, step/refStep)
		w := (1 - ca) * alpha
		cr += w * s.R
		cg += w * s.G
		cb += w * s.B
		ca += w
	}
	if ca <= 0 {
		return samples
	}
	r.blendOver(fb, x, y, cr, cg, cb, ca)
	return samples
}

// marchCase is one render of the oracle comparison: a grid, a camera
// and the opaque geometry drawn before the volume.
type marchCase struct {
	name   string
	grid   *hybrid.Grid
	tf     *hybrid.LinkedTF
	cam    render.Camera
	jitter bool
	w, h   int
	// geometry draws into a fresh framebuffer before the volume pass;
	// nil leaves it empty.
	geometry func(fb *render.Framebuffer, cam render.Camera)
}

// checkMarch renders c with the skipping march and with the oracle and
// requires identical Color and Depth bits and SampleCount. It returns
// the SampleCount.
func checkMarch(t *testing.T, c marchCase) int64 {
	t.Helper()
	frame := func() *render.Framebuffer {
		fb, err := render.NewFramebuffer(c.w, c.h)
		if err != nil {
			t.Fatal(err)
		}
		if c.geometry != nil {
			c.geometry(fb, c.cam)
		}
		return fb
	}
	got, want := frame(), frame()
	r, err := New(c.grid, c.tf)
	if err != nil {
		t.Fatal(err)
	}
	r.Jitter = c.jitter
	r.Render(got, c.cam)
	o, _ := New(c.grid, c.tf)
	o.Jitter = c.jitter
	oracleRender(o, want, c.cam)
	if r.SampleCount != o.SampleCount {
		t.Errorf("%s: SampleCount %d, oracle %d", c.name, r.SampleCount, o.SampleCount)
	}
	if r.fetches > r.SampleCount {
		t.Errorf("%s: %d fetches for %d march positions", c.name, r.fetches, r.SampleCount)
	}
	for i := range want.Color {
		if math.Float32bits(got.Color[i]) != math.Float32bits(want.Color[i]) {
			t.Fatalf("%s: Color[%d] (pixel %d) = %v, oracle %v", c.name, i, i/4, got.Color[i], want.Color[i])
		}
	}
	for i := range want.Depth {
		if math.Float32bits(got.Depth[i]) != math.Float32bits(want.Depth[i]) {
			t.Fatalf("%s: Depth[%d] = %v, oracle %v", c.name, i, got.Depth[i], want.Depth[i])
		}
	}
	return r.SampleCount
}

// marchViews are the five view directions of the hybrid matrix.
var marchViews = []vec.V3{
	vec.New(0.4, 0.3, 1), vec.New(0, 0, 1), vec.New(1, 0, 0),
	vec.New(-0.3, 1, 0.2), vec.New(-1, -0.6, -0.8),
}

func TestMarchMatchesOracleOnHybridFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]vec.V3, 20000)
	for i := range pts {
		if rng.Float64() < 0.85 {
			pts[i] = vec.New(rng.NormFloat64()*0.15, rng.NormFloat64()*0.2+0.1, rng.NormFloat64()*0.25)
		} else {
			pts[i] = vec.New(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1)
		}
	}
	tree, err := octree.Build(pts, octree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []int{16, 32, 64} {
		rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: res, Budget: 2000})
		if err != nil {
			t.Fatal(err)
		}
		tf, err := hybrid.DefaultTF(rep)
		if err != nil {
			t.Fatal(err)
		}
		for vi, view := range marchViews {
			cam, err := render.LookAtBounds(rep.Bounds, view, math.Pi/3, 1)
			if err != nil {
				t.Fatal(err)
			}
			points := func(fb *render.Framebuffer, cam render.Camera) {
				RenderPointPass(rep, tf, fb, cam, 1.5, false, PointPassOptions{})
			}
			for _, jitter := range []bool{false, true} {
				for _, geom := range []func(*render.Framebuffer, render.Camera){nil, points} {
					checkMarch(t, marchCase{
						name: fmt.Sprintf("res %d view %d jitter %v points %v", res, vi, jitter, geom != nil),
						grid: rep.Volume, tf: tf, cam: cam, jitter: jitter, w: 64, h: 64,
						geometry: geom,
					})
				}
			}
		}
	}
}

// edgeGrid returns an 8x6x5 grid over [-1,1]^3 with the given voxels
// set to 1.
func edgeGrid(t *testing.T, bounds vec.AABB, voxels ...[3]int) *hybrid.Grid {
	t.Helper()
	g, err := hybrid.NewGrid(8, 6, 5, bounds)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range voxels {
		g.Set(v[0], v[1], v[2], 1)
	}
	return g
}

func TestMarchMatchesOracleOnEdgeGrids(t *testing.T) {
	cube := vec.Box(vec.New(-1, -1, -1), vec.New(1, 1, 1))
	type gridCase struct {
		name string
		grid *hybrid.Grid
	}
	grids := []gridCase{{"all zero", edgeGrid(t, cube)}}
	for c := 0; c < 8; c++ {
		v := [3]int{(c & 1) * 7, (c >> 1 & 1) * 5, (c >> 2 & 1) * 4}
		grids = append(grids, gridCase{fmt.Sprintf("corner %v", v), edgeGrid(t, cube, v)})
	}
	grids = append(grids,
		gridCase{"x face", edgeGrid(t, cube, [3]int{0, 3, 2})},
		gridCase{"z face", edgeGrid(t, cube, [3]int{4, 2, 4})},
		gridCase{"two far corners", edgeGrid(t, cube, [3]int{0, 0, 0}, [3]int{7, 5, 4})},
		// A phase plot flattened onto one plane: a zero-extent z axis.
		gridCase{"zero-extent z", edgeGrid(t, vec.Box(vec.New(-1, -1, 0), vec.New(1, 1, 0)), [3]int{3, 2, 2}, [3]int{4, 3, 2})},
	)
	tf := testTF(t)
	views := append([]vec.V3{vec.New(0, 0.2, 1e-3)}, marchViews...)
	for _, g := range grids {
		for vi, view := range views {
			cam, err := render.LookAtBounds(g.grid.Bounds, view, math.Pi/3, 1.25)
			if err != nil {
				t.Fatal(err)
			}
			for _, jitter := range []bool{false, true} {
				checkMarch(t, marchCase{
					name: fmt.Sprintf("%s view %d jitter %v", g.name, vi, jitter),
					grid: g.grid, tf: tf, cam: cam, jitter: jitter, w: 40, h: 32,
				})
			}
		}
	}
}

// ballGrid returns an n^3 grid over [-1,1]^3 holding a ball of the
// given center and radius, with density falling off toward its edge.
func ballGrid(t *testing.T, n int, center vec.V3, radius float64) *hybrid.Grid {
	t.Helper()
	g, err := hybrid.NewGrid(n, n, n, vec.Box(vec.New(-1, -1, -1), vec.New(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				p := vec.New(float64(x), float64(y), float64(z)).Add(vec.New(0.5, 0.5, 0.5)).Scale(2 / float64(n)).Sub(vec.New(1, 1, 1))
				if d := p.Dist(center) / radius; d < 1 {
					g.Set(x, y, z, float32(1-d*d))
				}
			}
		}
	}
	return g
}

func TestMarchMatchesOracleCameraAndGeometry(t *testing.T) {
	// The occupied box spans about [-0.3, 0.7] x [-0.5, 0.5] x [-0.5, 0.5]
	// of the [-1, 1]^3 grid.
	grid := ballGrid(t, 24, vec.New(0.2, 0, 0), 0.4)
	tf := testTF(t)
	red := hybrid.RGBA{R: 1, A: 1}
	wall := func(z float64) func(*render.Framebuffer, render.Camera) {
		return func(fb *render.Framebuffer, cam render.Camera) {
			rast := render.NewRasterizer(fb, cam)
			rast.Mode = render.BlendOpaque
			rast.DrawTriangle(
				render.Vertex{Pos: vec.New(-0.6, -0.5, z), Color: red},
				render.Vertex{Pos: vec.New(0.6, -0.5, z), Color: red},
				render.Vertex{Pos: vec.New(0, 0.6, z), Color: red})
			rast.DrawPoint(vec.New(0.1, 0, z+0.1), 3, red)
		}
	}
	camera := func(eye, target vec.V3, fovy, near float64) render.Camera {
		cam, err := render.NewCamera(eye, target, vec.New(0, 1, 0), fovy, 1, near, 10)
		if err != nil {
			t.Fatal(err)
		}
		return cam
	}
	inBall := camera(vec.New(0.25, 0.05, 0.1), vec.New(0, 0, -1), math.Pi/2, 0.05)
	inGrid := camera(vec.New(-0.9, 0.85, 0.9), vec.New(0.2, 0, 0), math.Pi/3, 0.3)
	outside := testCam(t)
	cases := []marchCase{
		{name: "camera inside the occupied box", cam: inBall},
		{name: "camera inside the grid, outside the box", cam: inGrid},
		{name: "geometry in front of the grid", cam: outside, geometry: wall(1.5)},
		{name: "geometry in the grid, in front of the box", cam: outside, geometry: wall(0.8)},
		{name: "geometry inside the box", cam: outside, geometry: wall(0.1)},
		{name: "geometry in the grid, behind the box", cam: outside, geometry: wall(-0.8)},
		{name: "geometry behind the grid", cam: outside, geometry: wall(-1.5)},
		{name: "camera inside the box, geometry behind it", cam: inBall, geometry: wall(-0.3)},
		{name: "camera inside the grid, geometry in front of the box", cam: inGrid, geometry: wall(0.6)},
	}
	for _, c := range cases {
		for _, jitter := range []bool{false, true} {
			c := c
			c.name = fmt.Sprintf("%s jitter %v", c.name, jitter)
			c.grid, c.tf, c.jitter, c.w, c.h = grid, tf, jitter, 48, 48
			if checkMarch(t, c) == 0 {
				t.Errorf("%s: no march positions", c.name)
			}
		}
	}
}

func TestMarchSkipsEmptySpace(t *testing.T) {
	tf := testTF(t)
	cam := testCam(t)
	cast := func(g *hybrid.Grid) *Renderer {
		r, err := New(g, tf)
		if err != nil {
			t.Fatal(err)
		}
		fb, _ := render.NewFramebuffer(64, 64)
		r.Render(fb, cam)
		return r
	}
	empty := cast(edgeGrid(t, vec.Box(vec.New(-1, -1, -1), vec.New(1, 1, 1))))
	if empty.SampleCount == 0 || empty.fetches != 0 {
		t.Errorf("all-zero grid: %d march positions, %d fetches; want >0 and 0", empty.SampleCount, empty.fetches)
	}
	// The ball fills an eighth of the grid's volume: most rays miss its
	// box and the ones that hit it fetch only inside it.
	ball := cast(ballGrid(t, 32, vec.New(0.2, 0, 0), 0.4))
	if ball.fetches == 0 || 3*ball.fetches > ball.SampleCount {
		t.Errorf("ball grid: %d fetches for %d march positions; want fewer than a third", ball.fetches, ball.SampleCount)
	}
}
