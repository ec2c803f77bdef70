package hybrid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// oracleSample is the per-call trilinear fetch the Sampler replaced,
// kept verbatim: bounds and extents recomputed per sample and all
// eight corners fetched through the clamping At.
func oracleSample(g *Grid, p vec.V3) float64 {
	if !g.Bounds.Contains(p) {
		return 0
	}
	n := g.Bounds.Normalize(p)
	// Voxel centers sit at (i+0.5)/N; convert to continuous voxel coords.
	fx := n.X*float64(g.Nx) - 0.5
	fy := n.Y*float64(g.Ny) - 0.5
	fz := n.Z*float64(g.Nz) - 0.5
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	z0 := int(math.Floor(fz))
	tx := fx - float64(x0)
	ty := fy - float64(y0)
	tz := fz - float64(z0)

	lerp := func(a, b float32, t float64) float64 {
		return float64(a) + t*(float64(b)-float64(a))
	}
	c00 := lerp(g.At(x0, y0, z0), g.At(x0+1, y0, z0), tx)
	c10 := lerp(g.At(x0, y0+1, z0), g.At(x0+1, y0+1, z0), tx)
	c01 := lerp(g.At(x0, y0, z0+1), g.At(x0+1, y0, z0+1), tx)
	c11 := lerp(g.At(x0, y0+1, z0+1), g.At(x0+1, y0+1, z0+1), tx)
	c0 := c00 + ty*(c10-c00)
	c1 := c01 + ty*(c11-c01)
	return c0 + tz*(c1-c0)
}

// samplerProbes returns points covering every path of the sampler:
// random interior and exterior points, points exactly on each Min and
// Max face, and points on the x voxel-center planes, where a cell
// starts or stops being interior.
func samplerProbes(rng *rand.Rand, g *Grid) []vec.V3 {
	lo, hi := g.Bounds.Min, g.Bounds.Max
	size := g.Bounds.Size()
	lerpAxis := func(a, b, t float64) float64 { return a + t*(b-a) }
	// Exterior margin: up to a quarter of the extent (or 1 on a
	// zero-extent axis) beyond each face.
	pad := func(s float64) float64 {
		if s == 0 {
			return 1
		}
		return s / 4
	}
	var out []vec.V3
	for i := 0; i < 2000; i++ {
		out = append(out, vec.New(
			lerpAxis(lo.X, hi.X, rng.Float64()),
			lerpAxis(lo.Y, hi.Y, rng.Float64()),
			lerpAxis(lo.Z, hi.Z, rng.Float64())))
		out = append(out, vec.New(
			lerpAxis(lo.X-pad(size.X), hi.X+pad(size.X), rng.Float64()),
			lerpAxis(lo.Y-pad(size.Y), hi.Y+pad(size.Y), rng.Float64()),
			lerpAxis(lo.Z-pad(size.Z), hi.Z+pad(size.Z), rng.Float64())))
	}
	for i := 0; i < 200; i++ {
		p := vec.New(
			lerpAxis(lo.X, hi.X, rng.Float64()),
			lerpAxis(lo.Y, hi.Y, rng.Float64()),
			lerpAxis(lo.Z, hi.Z, rng.Float64()))
		// Snap one, two or three coordinates onto a face.
		for axis := 0; axis < 3; axis++ {
			if rng.Intn(2) == 0 {
				continue
			}
			face := lo
			if rng.Intn(2) == 0 {
				face = hi
			}
			switch axis {
			case 0:
				p.X = face.X
			case 1:
				p.Y = face.Y
			case 2:
				p.Z = face.Z
			}
		}
		out = append(out, p)
	}
	for _, p := range [][3]float64{{0, 0, 0}, {1, 1, 1}, {0, 1, 0}, {1, 0, 1}} {
		out = append(out, vec.New(
			lerpAxis(lo.X, hi.X, p[0]),
			lerpAxis(lo.Y, hi.Y, p[1]),
			lerpAxis(lo.Z, hi.Z, p[2])))
	}
	// Voxel-center planes: x = (i+0.5)/Nx.
	for i := 0; i < g.Nx; i++ {
		c := (float64(i) + 0.5) / float64(g.Nx)
		out = append(out, vec.New(lerpAxis(lo.X, hi.X, c),
			lerpAxis(lo.Y, hi.Y, rng.Float64()), lerpAxis(lo.Z, hi.Z, rng.Float64())))
	}
	return out
}

// TestSamplerBitIdenticalToOracle compares the sampler with the
// per-call oracle bit for bit on cubes, anisotropic grids, 1-voxel
// axes and a zero-extent bounds axis.
func TestSamplerBitIdenticalToOracle(t *testing.T) {
	cases := []struct {
		nx, ny, nz int
		bounds     vec.AABB
	}{
		{8, 8, 8, unitBox()},
		{5, 7, 3, vec.Box(vec.New(-1.5, 0.25, -3), vec.New(2, 0.75, 4))},
		{1, 6, 4, vec.Box(vec.New(0, 0, 0), vec.New(1, 2, 3))},
		{6, 1, 1, vec.Box(vec.New(-1, -1, -1), vec.New(1, 1, 1))},
		{1, 1, 1, unitBox()},
		{4, 5, 6, vec.Box(vec.New(0, 2, 0), vec.New(1, 2, 1))},   // zero-extent y
		{1, 3, 2, vec.Box(vec.New(-2, 0, 0), vec.New(-2, 1, 1))}, // zero-extent, 1-voxel x
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range cases {
		name := fmt.Sprintf("%dx%dx%d/%v", c.nx, c.ny, c.nz, c.bounds)
		g, err := NewGrid(c.nx, c.ny, c.nz, c.bounds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range g.Data {
			g.Data[i] = rng.Float32()
		}
		s := g.Sampler()
		for _, p := range samplerProbes(rng, g) {
			want := oracleSample(g, p)
			if got := s.Sample(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Sampler.Sample(%v) = %v, oracle %v", name, p, got, want)
			}
			if got := g.Sample(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Grid.Sample(%v) = %v, oracle %v", name, p, got, want)
			}
		}
	}
}

// TestSamplerZeroOutsideOccupied checks the occupied box: Sample is
// exactly 0 at random points outside it and just outside each of its
// faces, every non-zero voxel center lies inside it, and an all-zero
// grid has none.
func TestSamplerZeroOutsideOccupied(t *testing.T) {
	cube := vec.Box(vec.New(-1, -1, -1), vec.New(1, 1, 1))
	cases := []struct {
		name       string
		nx, ny, nz int
		bounds     vec.AABB
		voxels     [][3]int // set to a non-zero value; nil = random block
	}{
		{"all zero", 8, 8, 8, cube, [][3]int{}},
		{"corner min", 8, 6, 5, cube, [][3]int{{0, 0, 0}}},
		{"corner max", 8, 6, 5, cube, [][3]int{{7, 5, 4}}},
		{"corner mixed", 8, 6, 5, cube, [][3]int{{7, 0, 4}}},
		{"face", 8, 6, 5, cube, [][3]int{{0, 3, 2}}},
		{"interior voxel", 9, 9, 9, cube, [][3]int{{4, 4, 4}}},
		{"two in one row", 9, 9, 9, cube, [][3]int{{1, 4, 4}, {6, 4, 4}}},
		{"random block", 16, 12, 20, vec.Box(vec.New(-2, 0.5, -3), vec.New(1, 0.75, 4)), nil},
		{"zero-extent y", 6, 5, 4, vec.Box(vec.New(0, 2, 0), vec.New(1, 2, 1)), [][3]int{{2, 2, 1}}},
		{"1-voxel x", 1, 8, 8, unitBox(), [][3]int{{0, 3, 3}}},
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range cases {
		g, err := NewGrid(c.nx, c.ny, c.nz, c.bounds)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		voxels := c.voxels
		if voxels == nil {
			lo := [3]int{3 + rng.Intn(4), 2 + rng.Intn(3), 5 + rng.Intn(4)}
			for i := 0; i < 40; i++ {
				voxels = append(voxels, [3]int{lo[0] + rng.Intn(5), lo[1] + rng.Intn(4), lo[2] + rng.Intn(6)})
			}
		}
		for _, v := range voxels {
			g.Set(v[0], v[1], v[2], 0.25+rng.Float32())
		}
		s := g.Sampler()
		occ, ok := s.Occupied()
		if ok != (len(voxels) > 0) {
			t.Fatalf("%s: Occupied ok = %v with %d non-zero voxels", c.name, ok, len(voxels))
		}
		if !ok {
			for _, p := range samplerProbes(rng, g) {
				if got := s.Sample(p); got != 0 {
					t.Fatalf("%s: Sample(%v) = %v in an all-zero grid", c.name, p, got)
				}
			}
			continue
		}
		size := g.Bounds.Size()
		for _, v := range voxels {
			center := vec.New(
				g.Bounds.Min.X+size.X*(float64(v[0])+0.5)/float64(g.Nx),
				g.Bounds.Min.Y+size.Y*(float64(v[1])+0.5)/float64(g.Ny),
				g.Bounds.Min.Z+size.Z*(float64(v[2])+0.5)/float64(g.Nz))
			if !occ.Contains(center) {
				t.Fatalf("%s: voxel %v center %v outside occupied box %v", c.name, v, center, occ)
			}
		}
		// Points outside the box: random ones over the padded grid, and
		// ones a rounding step beyond each face.
		var probes []vec.V3
		for _, p := range samplerProbes(rng, g) {
			if !occ.Contains(p) {
				probes = append(probes, p)
			}
		}
		for i := 0; i < 200; i++ {
			p := vec.New(
				occ.Min.X+rng.Float64()*(occ.Max.X-occ.Min.X),
				occ.Min.Y+rng.Float64()*(occ.Max.Y-occ.Min.Y),
				occ.Min.Z+rng.Float64()*(occ.Max.Z-occ.Min.Z))
			axis := rng.Intn(3)
			if rng.Intn(2) == 0 {
				p = p.WithComponent(axis, math.Nextafter(occ.Min.Component(axis), math.Inf(-1)))
			} else {
				p = p.WithComponent(axis, math.Nextafter(occ.Max.Component(axis), math.Inf(1)))
			}
			probes = append(probes, p)
		}
		if len(probes) < 200 {
			t.Fatalf("%s: only %d probes outside the occupied box", c.name, len(probes))
		}
		for _, p := range probes {
			if got := s.Sample(p); got != 0 {
				t.Fatalf("%s: Sample(%v) = %v outside occupied box %v", c.name, p, got, occ)
			}
		}
	}
}
