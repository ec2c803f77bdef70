package beam

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/par"
)

// oracleStep is the one-step-at-a-time push the tiled kernel replaced,
// kept verbatim: one parallel sweep over all particles per step, both
// half-kicks evaluating the space-charge force in full. The kernel
// must reproduce its particle state bit for bit.
func oracleStep(s *Sim) {
	cfg := s.Config
	ds := s.ds
	half := ds / 2
	kappa0 := cfg.Lattice.Kappa(s.S)
	kappa1 := cfg.Lattice.Kappa(s.S + ds)
	a0, b0 := s.Core.A, s.Core.B
	next := s.Core.StepRK4(cfg.Lattice, s.S, ds, cfg.Perveance, cfg.EmitX, cfg.EmitY)
	a1, b1 := next.A, next.B

	e := s.Particles
	par.For(e.Len(), cfg.Workers, func(i int) {
		x, y, z := e.X[i], e.Y[i], e.Z[i]
		px, py, pz := e.Px[i], e.Py[i], e.Pz[i]

		// First half-kick with fields at s.
		fx, fy := spaceChargeKick(x, y, a0, b0, cfg.Perveance)
		px += half * (-kappa0*x + fx)
		py += half * (kappa0*y + fy)
		pz += half * (-cfg.FocusZ * z)

		// Drift.
		x += ds * px
		y += ds * py
		z += ds * (pz + cfg.DriftZ)

		// Second half-kick with fields at s+ds.
		fx, fy = spaceChargeKick(x, y, a1, b1, cfg.Perveance)
		px += half * (-kappa1*x + fx)
		py += half * (kappa1*y + fy)
		pz += half * (-cfg.FocusZ * z)

		e.X[i], e.Y[i], e.Z[i] = x, y, z
		e.Px[i], e.Py[i], e.Pz[i] = px, py, pz
	})

	s.Core = next
	s.S += ds
	s.steps++
}

// sameBits reports the first difference between two sims' states,
// comparing every float by its bit pattern.
func sameBits(a, b *Sim) error {
	arrays := []struct {
		name string
		x, y []float64
	}{
		{"X", a.Particles.X, b.Particles.X},
		{"Y", a.Particles.Y, b.Particles.Y},
		{"Z", a.Particles.Z, b.Particles.Z},
		{"Px", a.Particles.Px, b.Particles.Px},
		{"Py", a.Particles.Py, b.Particles.Py},
		{"Pz", a.Particles.Pz, b.Particles.Pz},
		{"Core", []float64{a.Core.A, a.Core.B, a.Core.Ap, a.Core.Bp}, []float64{b.Core.A, b.Core.B, b.Core.Ap, b.Core.Bp}},
		{"S", []float64{a.S}, []float64{b.S}},
	}
	for _, arr := range arrays {
		if len(arr.x) != len(arr.y) {
			return fmt.Errorf("%s: length %d vs %d", arr.name, len(arr.x), len(arr.y))
		}
		for i := range arr.x {
			if math.Float64bits(arr.x[i]) != math.Float64bits(arr.y[i]) {
				return fmt.Errorf("%s[%d]: %v vs %v", arr.name, i, arr.x[i], arr.y[i])
			}
		}
	}
	if a.Steps() != b.Steps() {
		return fmt.Errorf("Steps: %d vs %d", a.Steps(), b.Steps())
	}
	return nil
}

// checkAgainstOracle drives the tiled kernel and the per-step oracle
// through the same step counts, chained so blocks start at many
// phases of the lattice period, and fails on the first differing bit.
func checkAgainstOracle(t *testing.T, name string, cfg Config) {
	t.Helper()
	got, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, _ := NewSim(cfg)
	for _, k := range []int{1, 63, 64, 65, 197} {
		got.RunSteps(k)
		for i := 0; i < k; i++ {
			oracleStep(want)
		}
		if err := sameBits(got, want); err != nil {
			t.Fatalf("%s: after RunSteps(%d) at step %d: %v", name, k, got.Steps(), err)
		}
	}
}

// TestRunStepsBitIdenticalToOracle covers tile-edge particle counts,
// uneven worker splits, both block lengths and a zero-current beam.
func TestRunStepsBitIdenticalToOracle(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 20011} {
		for _, workers := range []int{1, 2, 3, 7} {
			for _, spp := range []int{8, 64} {
				for _, perveance := range []float64{DefaultConfig(1).Perveance, 0} {
					cfg := DefaultConfig(n)
					cfg.Workers = workers
					cfg.StepsPerPeriod = spp
					cfg.Perveance = perveance
					checkAgainstOracle(t, fmt.Sprintf("n=%d/workers=%d/spp=%d/K=%g", n, workers, spp, perveance), cfg)
				}
			}
		}
	}
}

// TestRunStepsBitIdenticalNonDyadicStep repeats the comparison on a
// 1.1-long period. The default period is 1, so its step lengths are
// powers of two, and scaling by a power of two is exact: a kernel
// that distributed ds or ds/2 over a sum would still match there.
func TestRunStepsBitIdenticalNonDyadicStep(t *testing.T) {
	for _, n := range []int{257, 20011} {
		for _, workers := range []int{1, 3} {
			for _, spp := range []int{8, 64} {
				cfg := DefaultConfig(n)
				cfg.Lattice.DriftLen = 0.35
				cfg.Workers = workers
				cfg.StepsPerPeriod = spp
				checkAgainstOracle(t, fmt.Sprintf("n=%d/workers=%d/spp=%d", n, workers, spp), cfg)
			}
		}
	}
}

// TestStepMatchesRunSteps: Step is one RunSteps(1), and stepping one
// at a time lands on the same bits as one long RunSteps or RunPeriods.
func TestStepMatchesRunSteps(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.Workers = 3
	one, _ := NewSim(cfg)
	many, _ := NewSim(cfg)
	periods, _ := NewSim(cfg)
	for i := 0; i < 2*cfg.StepsPerPeriod; i++ {
		one.Step()
	}
	many.RunSteps(2 * cfg.StepsPerPeriod)
	periods.RunPeriods(2)
	if err := sameBits(one, many); err != nil {
		t.Fatalf("Step x%d vs RunSteps: %v", 2*cfg.StepsPerPeriod, err)
	}
	if err := sameBits(one, periods); err != nil {
		t.Fatalf("Step x%d vs RunPeriods(2): %v", 2*cfg.StepsPerPeriod, err)
	}
}

// TestRunStepsAllocationFree: the envelope table and the force buffer
// are reused, so after the first call a serial period allocates at
// most the kernel closure.
func TestRunStepsAllocationFree(t *testing.T) {
	cfg := DefaultConfig(600)
	cfg.Workers = 1
	sim, _ := NewSim(cfg)
	sim.RunPeriods(1)
	if allocs := testing.AllocsPerRun(5, func() { sim.RunPeriods(1) }); allocs > 1 {
		t.Errorf("RunPeriods(1) allocates %v times per call, want at most the kernel closure", allocs)
	}
}

// BenchmarkBeamPeriod times one lattice period of a 200k-particle
// beam: Workers=1 is the single-core cost, default uses every core.
func BenchmarkBeamPeriod(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=default", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig(200000)
			cfg.Workers = bc.workers
			sim, err := NewSim(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.RunPeriods(1)
			}
		})
	}
}
