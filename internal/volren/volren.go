// Package volren is the software volume renderer of the hybrid
// pipeline — the stand-in for the texture-mapping-hardware volume
// rendering of §2.1. It ray-casts a density grid through the viewer's
// transfer function with front-to-back compositing, early ray
// termination, and correct interleaving with opaque geometry already
// in the depth buffer (so halo points occlude and are occluded by the
// volume exactly as in Fig 4).
//
// The hybrid volume holds only the dense beam core, so most of it is
// empty. Each ray fetches the volume only inside the occupied box of
// hybrid.Sampler, where a sample can be non-zero; it steps over the
// rest without fetching, at the same positions, so images and
// SampleCount are those of a march that fetched everywhere.
package volren

import (
	"fmt"
	"math"

	"repro/internal/hybrid"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/vec"
)

// Renderer ray-casts one density grid.
type Renderer struct {
	Grid *hybrid.Grid
	TF   *hybrid.LinkedTF

	// StepScale is the ray sampling distance as a fraction of the voxel
	// size; 0.5 gives the conventional 2x oversampling.
	StepScale float64
	// Jitter offsets ray starts by a per-pixel deterministic fraction of
	// a step to break banding ("wood grain") artifacts.
	Jitter bool
	// Workers bounds goroutine parallelism (0 = auto). Scanlines are
	// distributed in contiguous chunks.
	Workers int

	// SampleCount is the number of march positions of the last Render:
	// every step of every ray through the grid up to its exit, opaque
	// geometry or early termination, whether or not the step fetched
	// the volume. It is the cost model the Fig 1 experiment reports
	// (256^3 full-res casting vs 64^3 hybrid casting).
	SampleCount int64
	// fetches is the number of those positions that fetched the volume:
	// the ones inside the occupied box.
	fetches int64
}

// New returns a renderer over the given grid and transfer functions.
func New(grid *hybrid.Grid, tf *hybrid.LinkedTF) (*Renderer, error) {
	if grid == nil || tf == nil {
		return nil, fmt.Errorf("volren: nil grid or transfer function")
	}
	return &Renderer{Grid: grid, TF: tf, StepScale: 0.5}, nil
}

// Render casts one ray per pixel into fb. Pixels already covered by
// opaque geometry composite the volume only in front of that geometry.
// The color result is blended over the existing framebuffer contents.
func (r *Renderer) Render(fb *render.Framebuffer, cam render.Camera) {
	voxel := r.Grid.Bounds.Size().X / float64(r.Grid.Nx)
	if s := r.Grid.Bounds.Size().Y / float64(r.Grid.Ny); s < voxel {
		voxel = s
	}
	if s := r.Grid.Bounds.Size().Z / float64(r.Grid.Nz); s < voxel {
		voxel = s
	}
	step := voxel * r.stepScale()
	refStep := voxel
	smp := r.Grid.Sampler()
	rays := cam.RayGen(fb.W, fb.H)

	counts := make([][2]int64, fb.H) // march positions, fetches
	par.ForChunks(fb.H, r.Workers, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			var n [2]int64
			for x := 0; x < fb.W; x++ {
				pos, fetched := r.castPixel(fb, &cam, &rays, &smp, x, y, step, refStep)
				n[0] += pos
				n[1] += fetched
			}
			counts[y] = n
		}
	})
	r.SampleCount, r.fetches = 0, 0
	for _, c := range counts {
		r.SampleCount += c[0]
		r.fetches += c[1]
	}
}

func (r *Renderer) stepScale() float64 {
	if r.StepScale <= 0 {
		return 0.5
	}
	return r.StepScale
}

// castPixel marches one ray and blends the result over the pixel. It
// returns the number of march positions and of volume fetches.
// Positions outside the sampler's occupied box read exactly 0 and add
// nothing, so the march steps over them without fetching: the
// positions, the fetches that remain and every float they produce are
// those of a march that fetched at every position.
func (r *Renderer) castPixel(fb *render.Framebuffer, cam *render.Camera, rays *render.RayGen, smp *hybrid.Sampler, x, y int, step, refStep float64) (positions, fetches int64) {
	origin, dir := rays.Ray(x, y)
	tEnter, tExit, hit := r.Grid.Bounds.IntersectRay(origin, dir)
	if !hit || tExit <= 0 {
		return 0, 0
	}
	if tEnter < cam.Near {
		tEnter = cam.Near
	}
	if r.Jitter {
		// Deterministic per-pixel jitter from a hash of the coordinates.
		h := uint32(x)*374761393 + uint32(y)*668265263
		h = (h ^ (h >> 13)) * 1274126177
		tEnter += step * float64(h%1024) / 1024
	}

	// Existing opaque geometry limits the march.
	zGeom := fb.DepthAt(x, y)
	geomLimit := math.Inf(1)
	if !math.IsInf(float64(zGeom), 1) {
		// Convert the stored NDC depth back to a ray parameter limit by
		// bisection over view-space depth (monotonic), cheap enough at
		// per-pixel granularity and exact at convergence.
		geomLimit = r.rayLimitForDepth(cam, origin, dir, float64(zGeom), tEnter, tExit)
	}
	end := math.Min(tExit, geomLimit)

	// The ray's interval through the occupied box, widened by a step;
	// a ray that misses the box (or an all-zero grid) gets the empty
	// interval.
	occEnter, occExit := math.Inf(1), math.Inf(-1)
	if occ, ok := smp.Occupied(); ok {
		if t0, t1, hit := occ.IntersectRay(origin, dir); hit {
			occEnter, occExit = t0-step, t1+step
		}
	}

	var cr, cg, cb, ca float64 // premultiplied accumulation
	t := tEnter
	// Empty space before the box: count the positions, fetch nothing.
	for ; t < end && t < occEnter; t += step {
		positions++
	}
	for ; t < end && t <= occExit && ca < 0.99; t += step {
		p := origin.Add(dir.Scale(t))
		d := smp.Sample(p)
		fetches++
		if d <= 0 {
			continue
		}
		s := r.TF.VolumeRGBA(d)
		if s.A <= 0 {
			continue
		}
		// Opacity correction for the step length.
		alpha := 1 - math.Pow(1-s.A, step/refStep)
		w := (1 - ca) * alpha
		cr += w * s.R
		cg += w * s.G
		cb += w * s.B
		ca += w
	}
	if ca < 0.99 {
		// Past the box ca no longer changes: count the rest.
		for ; t < end; t += step {
			positions++
		}
	}
	positions += fetches
	if ca <= 0 {
		return positions, fetches
	}
	// Composite the accumulated (premultiplied) color over the pixel.
	r.blendOver(fb, x, y, cr, cg, cb, ca)
	return positions, fetches
}

// rayLimitForDepth finds the ray parameter whose NDC depth equals
// zNDC, by bisection over [tLo, tHi].
func (r *Renderer) rayLimitForDepth(cam *render.Camera, origin, dir vec.V3, zNDC, tLo, tHi float64) float64 {
	// Depth is increasing in t (farther along the ray = deeper).
	lo, hi := tLo, tHi
	if cam.NDCDepth(cam.ViewZ(origin.Add(dir.Scale(hi)))) <= zNDC {
		return hi // geometry is behind the volume exit
	}
	if cam.NDCDepth(cam.ViewZ(origin.Add(dir.Scale(lo)))) >= zNDC {
		return lo // geometry is in front of the volume entry
	}
	for i := 0; i < 32; i++ {
		mid := (lo + hi) / 2
		if cam.NDCDepth(cam.ViewZ(origin.Add(dir.Scale(mid)))) < zNDC {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// blendOver composites premultiplied (cr,cg,cb,ca) over pixel (x,y).
func (r *Renderer) blendOver(fb *render.Framebuffer, x, y int, cr, cg, cb, ca float64) {
	i := (y*fb.W + x) * 4
	fb.Color[i] = float32(cr) + fb.Color[i]*float32(1-ca)
	fb.Color[i+1] = float32(cg) + fb.Color[i+1]*float32(1-ca)
	fb.Color[i+2] = float32(cb) + fb.Color[i+2]*float32(1-ca)
	fb.Color[i+3] = float32(ca) + fb.Color[i+3]*float32(1-ca)
}

// PointAttr computes a scalar property for the halo point with the
// given original particle index — the §2.5 dynamic-coloring hook
// ("points could be drawn ... based on some dynamically calculated
// property that the scientist is interested in, such as temperature or
// emittance").
type PointAttr func(orig int64) float64

// RenderHybridDynamic renders like RenderHybrid but colors each drawn
// halo point by attr through attrMap, normalized over the selected
// points. "Volume-based rendering, because it is limited to
// pre-calculated data, cannot allow dynamic changes like these" — only
// the point half of the image restyles.
func RenderHybridDynamic(rep *hybrid.Representation, tf *hybrid.LinkedTF,
	fb *render.Framebuffer, cam render.Camera, pointSize float64,
	attr PointAttr, attrMap hybrid.ColorMap) (*render.Rasterizer, *Renderer, error) {

	if attr == nil {
		return nil, nil, fmt.Errorf("volren: nil point attribute")
	}
	if len(rep.OrigIndex) != len(rep.Points) {
		return nil, nil, fmt.Errorf("volren: representation lacks original indices (%d vs %d points)",
			len(rep.OrigIndex), len(rep.Points))
	}
	sel := rep.SelectPoints(tf)
	// Normalize the attribute over the drawn set so the full color ramp
	// is used regardless of units.
	lo, hi := math.Inf(1), math.Inf(-1)
	vals := make([]float64, len(sel))
	for k, i := range sel {
		v := attr(rep.OrigIndex[i])
		vals[k] = v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	rast := render.NewRasterizer(fb, cam)
	rast.Mode = render.BlendOpaque
	splats := make([]render.PointSplat, len(sel))
	for k, i := range sel {
		c := attrMap.Eval((vals[k] - lo) / span)
		c.A = 1
		splats[k] = render.PointSplat{Pos: rep.Points[i], Radius: pointSize, Color: c}
	}
	rast.DrawPointBatch(splats)
	vr, err := New(rep.Volume, tf)
	if err != nil {
		return nil, nil, err
	}
	vr.Render(fb, cam)
	return rast, vr, nil
}

// PointPassOptions bounds a halo-point pass to a sub-range of a
// frame's points — the worker-side render of the sort-last
// distributed path, where each fleet member draws one contiguous
// octree-ordered slice of the frame's point set.
type PointPassOptions struct {
	// Offset is the global index of the pass's first point: point
	// selection hashes global indices (SelectPointsOffset), so a
	// sub-range pass draws exactly the points the whole frame's pass
	// would draw from that range.
	Offset int
	// Clip bounds the pass to the depth slab of the points' own
	// bounding box (Camera.DepthRange over the sub-volume), the IceT
	// sort-last idiom: a partition can never write outside its depth
	// interval. The interval is conservative, so clipping changes no
	// pixel of a pass that only draws its own points.
	Clip bool
}

// RenderPointPass draws the halo-point half of RenderHybrid — the
// depth-writing opaque splats selected by the point transfer function
// — and returns the rasterizer holding the pass stats. The volume
// pass is not run; rep.Volume may be nil. Splitting a frame's points
// into contiguous sub-ranges and running one pass per range (each at
// its global Offset) writes, across all partial framebuffers, exactly
// the fragments the undivided pass writes.
func RenderPointPass(rep *hybrid.Representation, tf *hybrid.LinkedTF,
	fb *render.Framebuffer, cam render.Camera, pointSize float64, opaquePoints bool,
	opt PointPassOptions) *render.Rasterizer {

	rast := render.NewRasterizer(fb, cam)
	rast.Mode = render.BlendOpaque
	if opt.Clip && len(rep.Points) > 0 {
		box := vec.Empty()
		for _, p := range rep.Points {
			box = box.ExtendPoint(p)
		}
		if near, far, ok := cam.DepthRange(box); ok {
			rast.ClipDepth, rast.ClipNear, rast.ClipFar = true, near, far
		}
	}
	sel := rep.SelectPointsOffset(tf, opt.Offset)
	// The halo points go through the tile-binned parallel backend: the
	// splat batch is projected, binned and rasterized on all cores with
	// output bit-identical to serial DrawPoint calls in this order.
	splats := make([]render.PointSplat, len(sel))
	for k, i := range sel {
		d := tf.MapDensity(float64(rep.PointDensity[i]))
		c := tf.Color.Eval(d)
		if !opaquePoints {
			c.A = 0.35 + 0.65*d
		} else {
			c.A = 1
		}
		splats[k] = render.PointSplat{Pos: rep.Points[i], Radius: pointSize, Color: c}
	}
	rast.DrawPointBatch(splats)
	return rast
}

// RenderHybrid renders a hybrid representation exactly as the paper's
// viewer does: the halo points selected by the point transfer function
// are drawn first as depth-writing splats, then the density volume is
// ray-cast in front of and behind them (§2.4, Fig 4). pointSize is the
// splat radius in pixels; opaquePoints matches Fig 4's "points shown
// here are completely opaque" mode, otherwise points modulate alpha by
// their leaf density through the color map.
func RenderHybrid(rep *hybrid.Representation, tf *hybrid.LinkedTF,
	fb *render.Framebuffer, cam render.Camera, pointSize float64, opaquePoints bool) (*render.Rasterizer, *Renderer, error) {

	rast := RenderPointPass(rep, tf, fb, cam, pointSize, opaquePoints, PointPassOptions{})

	vr, err := New(rep.Volume, tf)
	if err != nil {
		return nil, nil, err
	}
	vr.Render(fb, cam)
	return rast, vr, nil
}

// RenderStill renders a hybrid representation from the given view
// direction into a fresh w x h framebuffer with the standard
// experiment camera (LookAtBounds over the representation's bounds),
// returning the frame and both renderer stat blocks. It is the
// one-call render path shared by the core façade, the remote service's
// thin-client mode, and the viewer — all of which must produce
// bit-identical images for the same representation and TF.
func RenderStill(rep *hybrid.Representation, tf *hybrid.LinkedTF, w, h int, viewDir vec.V3) (*render.Framebuffer, *render.Rasterizer, *Renderer, error) {
	fb, err := render.NewFramebuffer(w, h)
	if err != nil {
		return nil, nil, nil, err
	}
	cam, err := render.LookAtBounds(rep.Bounds, viewDir, math.Pi/3, float64(w)/float64(h))
	if err != nil {
		return nil, nil, nil, err
	}
	rast, vr, err := RenderHybrid(rep, tf, fb, cam, 1.5, false)
	if err != nil {
		return nil, nil, nil, err
	}
	return fb, rast, vr, nil
}
