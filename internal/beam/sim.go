package beam

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// Config describes a particle-core beam-dynamics run. The defaults
// (see DefaultConfig) put the channel at a zero-current phase advance
// near 80 degrees with strong space charge and a 1.5x envelope
// mismatch — the canonical halo-formation regime of Qiang & Ryne's
// particle-core studies, which is the regime the paper's figures show.
type Config struct {
	N    int   // number of test particles
	Seed int64 // RNG seed for the initial distribution

	Lattice   Lattice
	Perveance float64 // space-charge strength K
	EmitX     float64 // x emittance of the core
	EmitY     float64 // y emittance of the core
	Mismatch  float64 // initial envelope scale factor (1 = matched)

	// Longitudinal model: the bunch drifts in z at unit design velocity
	// with a weak linear restoring force holding it together. This keeps
	// the six-dimensional structure of the data without a longitudinal
	// space-charge solver, which the visualized halo does not depend on.
	FocusZ float64 // longitudinal focusing strength
	DriftZ float64 // design longitudinal velocity added to z each unit s

	StepsPerPeriod int // integrator resolution
	Workers        int // goroutine count for particle pushes (0 = auto)
}

// DefaultConfig returns a configuration that develops a visible halo in
// a few dozen lattice periods at laptop-scale particle counts.
func DefaultConfig(n int) Config {
	return Config{
		N:    n,
		Seed: 20020101,
		Lattice: Lattice{
			QuadLen:  0.2,
			DriftLen: 0.3,
			Strength: 12,
		},
		Perveance:      6e-3,
		EmitX:          1.5e-3,
		EmitY:          1.5e-3,
		Mismatch:       1.5,
		FocusZ:         0.5,
		DriftZ:         0.02,
		StepsPerPeriod: 64,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("beam: particle count %d must be positive", c.N)
	}
	if err := c.Lattice.Validate(); err != nil {
		return err
	}
	if c.Perveance < 0 {
		return fmt.Errorf("beam: perveance %g must be non-negative", c.Perveance)
	}
	if c.EmitX <= 0 || c.EmitY <= 0 {
		return fmt.Errorf("beam: emittances (%g, %g) must be positive", c.EmitX, c.EmitY)
	}
	if c.Mismatch <= 0 {
		return fmt.Errorf("beam: mismatch factor %g must be positive", c.Mismatch)
	}
	if c.StepsPerPeriod < 8 {
		return fmt.Errorf("beam: steps per period %d too coarse (need >= 8)", c.StepsPerPeriod)
	}
	return nil
}

// Sim is a running particle-core simulation. Create with NewSim, then
// call Step, RunSteps or RunPeriods; read Particles for the current
// phase-space state. Sim is not safe for concurrent use, but the push
// internally runs over particles in parallel.
//
// Every advance goes through one push kernel (RunSteps). It first
// steps the core envelope serially for a block of at most
// StepsPerPeriod steps, recording each step's focusing and semi-axes
// in a table reused across calls. It then sweeps the particles in
// tiles of pushTile over par.ForChunks and runs every step of the
// block step-major inside a tile, so the tile's six SoA arrays stay in
// L1 for the whole block instead of streaming from memory once per
// step.
//
// Force-carry invariant: a step's closing half-kick and the next
// step's opening half-kick evaluate the space-charge force at the same
// (x, y), from the same core (a, b) — the envelope after step k is the
// one before step k+1. So the kernel keeps that force in a per-tile
// buffer and evaluates it once per step. The focusing is recomputed
// from the table, and Kappa(S+ds) at step k is the same float as
// Kappa(S) at step k+1. No floating-point expression is altered, so
// the particle state is bit-identical to pushing one step at a time
// with both kicks evaluated in full.
type Sim struct {
	Config    Config
	Particles *Ensemble
	Core      Envelope // current core envelope
	S         float64  // path length travelled

	steps   int
	matched Envelope
	ds      float64
	env     []stepEnv // per-step table of the current block; cap is the block length
}

// pushTile is the particle tile of the push kernel: 256 particles of
// the six float64 phase-space arrays are 12 KB, which fits in L1.
const pushTile = 256

// stepEnv holds what one integration step needs from the envelope:
// the focusing at both ends of the step and the core semi-axes there.
type stepEnv struct {
	kappa0, kappa1 float64
	a0, b0, a1, b1 float64
}

// NewSim constructs a simulation: solves for the matched envelope,
// applies the mismatch factor, and loads a semi-Gaussian particle
// distribution filling the (mismatched) core.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	matched, err := MatchedEnvelope(cfg.Lattice, cfg.Perveance, cfg.EmitX, cfg.EmitY, cfg.StepsPerPeriod*4)
	if err != nil {
		return nil, err
	}
	core := Envelope{
		A: matched.A * cfg.Mismatch,
		B: matched.B * cfg.Mismatch,
	}
	e := NewEnsemble(cfg.N)
	// Momentum spread chosen so the particle distribution is roughly
	// self-consistent with the core emittance: sigma_p ~ eps / (2 sigma_x).
	psx := cfg.EmitX / (2 * core.A / 2)
	psy := cfg.EmitY / (2 * core.B / 2)
	e.SemiGaussianInit(cfg.Seed, core.A, core.B, core.A*4, [3]float64{psx, psy, psx / 4})
	return &Sim{
		Config:    cfg,
		Particles: e,
		Core:      core,
		matched:   matched,
		ds:        cfg.Lattice.Period() / float64(cfg.StepsPerPeriod),
		env:       make([]stepEnv, 0, cfg.StepsPerPeriod),
	}, nil
}

// Matched returns the matched envelope found at construction.
func (s *Sim) Matched() Envelope { return s.matched }

// Steps returns the number of integration steps taken so far.
func (s *Sim) Steps() int { return s.steps }

// spaceChargeKick returns the transverse space-charge force (Fx, Fy) on
// a particle at (x, y) from the uniform elliptical core with semi-axes
// (a, b). Inside the core the KV field is exactly linear:
//
//	Fx = 2K x / (a (a+b)),   Fy = 2K y / (b (a+b))
//
// Outside, the field decays; we use the continuation F_out = F_in / u
// with u = x^2/a^2 + y^2/b^2 (>1 outside), which is continuous at the
// boundary and exact in the round-beam limit (where it reduces to the
// K/r line-charge far field). This is the standard particle-core closure.
func spaceChargeKick(x, y, a, b, perveance float64) (fx, fy float64) {
	u := (x*x)/(a*a) + (y*y)/(b*b)
	fx = 2 * perveance * x / (a * (a + b))
	fy = 2 * perveance * y / (b * (a + b))
	if u > 1 {
		fx /= u
		fy /= u
	}
	return
}

// Step advances the simulation by one integration step of length ds
// using a leapfrog (kick-drift-kick) scheme for the particles,
// synchronized with an RK4 update of the core envelope.
func (s *Sim) Step() { s.RunSteps(1) }

// RunPeriods advances the simulation by n full lattice periods.
func (s *Sim) RunPeriods(n int) { s.RunSteps(n * s.Config.StepsPerPeriod) }

// RunSteps advances the simulation by n integration steps, in blocks
// of at most one lattice period (see Sim for the kernel).
func (s *Sim) RunSteps(n int) {
	for n > 0 {
		k := min(n, cap(s.env))
		s.push(s.advanceEnvelope(k))
		n -= k
	}
}

// advanceEnvelope steps the core envelope k steps and returns the
// per-step table the particle push of those steps reads.
func (s *Sim) advanceEnvelope(k int) []stepEnv {
	cfg := s.Config
	ds := s.ds
	env := s.env[:0]
	for i := 0; i < k; i++ {
		next := s.Core.StepRK4(cfg.Lattice, s.S, ds, cfg.Perveance, cfg.EmitX, cfg.EmitY)
		env = append(env, stepEnv{
			kappa0: cfg.Lattice.Kappa(s.S),
			kappa1: cfg.Lattice.Kappa(s.S + ds),
			a0:     s.Core.A,
			b0:     s.Core.B,
			a1:     next.A,
			b1:     next.B,
		})
		s.Core = next
		s.S += ds
		s.steps++
	}
	return env
}

// push advances every particle through the steps of env: tile by
// tile, step-major inside a tile, carrying the space-charge force
// from one step's closing half-kick to the next step's opening one.
func (s *Sim) push(env []stepEnv) {
	cfg := s.Config
	ds := s.ds
	half := ds / 2
	perveance, focusZ, driftZ := cfg.Perveance, cfg.FocusZ, cfg.DriftZ
	e := s.Particles
	par.ForChunks(e.Len(), cfg.Workers, func(lo, hi int) {
		var fxBuf, fyBuf [pushTile]float64
		for t0 := lo; t0 < hi; t0 += pushTile {
			t1 := min(t0+pushTile, hi)
			xs := e.X[t0:t1]
			n := len(xs)
			ys, zs := e.Y[t0:t1][:n], e.Z[t0:t1][:n]
			pxs, pys, pzs := e.Px[t0:t1][:n], e.Py[t0:t1][:n], e.Pz[t0:t1][:n]
			fx, fy := fxBuf[:n], fyBuf[:n]

			// The block's first opening half-kick has no carried force.
			for i := range xs {
				fx[i], fy[i] = spaceChargeKick(xs[i], ys[i], env[0].a0, env[0].b0, perveance)
			}
			for _, st := range env {
				for i := range xs {
					x, y, z := xs[i], ys[i], zs[i]
					px, py, pz := pxs[i], pys[i], pzs[i]

					// First half-kick with fields at s (carried).
					px += half * (-st.kappa0*x + fx[i])
					py += half * (st.kappa0*y + fy[i])
					pz += half * (-focusZ * z)

					// Drift.
					x += ds * px
					y += ds * py
					z += ds * (pz + driftZ)

					// Second half-kick with fields at s+ds; the force is
					// the next step's first half-kick force too.
					gx, gy := spaceChargeKick(x, y, st.a1, st.b1, perveance)
					px += half * (-st.kappa1*x + gx)
					py += half * (st.kappa1*y + gy)
					pz += half * (-focusZ * z)
					fx[i], fy[i] = gx, gy

					xs[i], ys[i], zs[i] = x, y, z
					pxs[i], pys[i], pzs[i] = px, py, pz
				}
			}
		}
	})
}

// Frame is a snapshot of the simulation state at one output time step —
// the unit the paper's partitioner and viewer operate on.
type Frame struct {
	Step int       // simulation step index at capture
	S    float64   // path length at capture
	E    *Ensemble // deep copy of the phase-space state
}

// Snapshot captures the current state as a Frame.
func (s *Sim) Snapshot() Frame {
	return Frame{Step: s.steps, S: s.S, E: s.Particles.Clone()}
}

// RunWithFrames advances nSteps and captures a frame every interval
// steps (plus the initial state). It is the generator used by the
// Fig 5 time-series experiment (350 frames of an evolving beam).
func (s *Sim) RunWithFrames(nSteps, interval int) []Frame {
	if interval <= 0 {
		interval = 1
	}
	frames := []Frame{s.Snapshot()}
	for done := interval; done <= nSteps; done += interval {
		s.RunSteps(interval)
		frames = append(frames, s.Snapshot())
	}
	s.RunSteps(nSteps % interval)
	return frames
}

// MaxRadius returns the largest sqrt(x^2+y^2) over the ensemble,
// normalized by the matched envelope's mean semi-axis — the standard
// halo-extent diagnostic of particle-core studies.
func (s *Sim) MaxRadius() float64 {
	mean := (s.matched.A + s.matched.B) / 2
	maxR2 := 0.0
	e := s.Particles
	for i := 0; i < e.Len(); i++ {
		r2 := e.X[i]*e.X[i] + e.Y[i]*e.Y[i]
		if r2 > maxR2 {
			maxR2 = r2
		}
	}
	return math.Sqrt(maxR2) / mean
}
