package render

import (
	"math"
	"testing"

	"repro/internal/vec"
)

// oracleRay is the per-pixel ray generator RayGen replaced, kept
// verbatim: the field-of-view tangent and view basis recomputed per
// pixel.
func oracleRay(c Camera, px, py, w, h int) (origin, dir vec.V3) {
	ndcX := 2*(float64(px)+0.5)/float64(w) - 1
	ndcY := 1 - 2*(float64(py)+0.5)/float64(h)
	tan := math.Tan(c.Fovy / 2)
	vd := vec.New(ndcX*tan*c.Aspect, ndcY*tan, -1)
	s := vec.New(c.View[0], c.View[1], c.View[2])
	u := vec.New(c.View[4], c.View[5], c.View[6])
	nf := vec.New(c.View[8], c.View[9], c.View[10])
	world := s.Scale(vd.X).Add(u.Scale(vd.Y)).Add(nf.Scale(vd.Z))
	return c.Eye, world.Norm()
}

func sameBits(a, b vec.V3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

func TestRayGenBitIdenticalToOracle(t *testing.T) {
	box := vec.Box(vec.New(-1, -0.5, -2), vec.New(3, 0.5, 1))
	for _, c := range []struct {
		dir         vec.V3
		fovy        float64
		w, h        int
		aspectRatio float64
	}{
		{vec.New(0.4, 0.3, 1), math.Pi / 3, 64, 64, 1},
		{vec.New(0, 1, 0), 0.7, 37, 23, 37.0 / 23},
		{vec.New(-1, -0.2, 0.1), 2.5, 5, 9, 0.5},
	} {
		cam, err := LookAtBounds(box, c.dir, c.fovy, c.aspectRatio)
		if err != nil {
			t.Fatal(err)
		}
		g := cam.RayGen(c.w, c.h)
		for y := 0; y < c.h; y++ {
			for x := 0; x < c.w; x++ {
				wo, wd := oracleRay(cam, x, y, c.w, c.h)
				o, d := g.Ray(x, y)
				if !sameBits(o, wo) || !sameBits(d, wd) {
					t.Fatalf("view %v pixel (%d,%d): RayGen.Ray = %v %v, oracle %v %v", c.dir, x, y, o, d, wo, wd)
				}
			}
		}
	}
}
