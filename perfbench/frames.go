package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/beam"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/pario"
	"repro/internal/render"
	"repro/internal/volren"
)

// particleChain is one §2 frame workload: a frame source plus the
// viewer that renders every frame the stream delivers. live_frame and
// replay_frames differ only in where frames come from.
type particleChain struct {
	name string
	in   *inputs

	// source builds a fresh streamed source for pipeline p.
	source func(p *core.ParticlePipeline) (core.FrameSource, error)
	// serialSource returns the serial equivalent: a function yielding
	// frame i (in order from 0), tracing its own layer calls under
	// parent when tr is non-nil.
	serialSource func(p *core.ParticlePipeline) (func(i int, tr *tracer, parent int) (beam.Frame, error), error)
}

func liveFrame(args params) (*run, error) {
	in := newInputs(args.seed)
	c := &particleChain{
		name: "live_frame",
		in:   in,
		source: func(p *core.ParticlePipeline) (core.FrameSource, error) {
			sim, err := p.NewSim()
			if err != nil {
				return nil, err
			}
			return core.SimSource(sim, math.MaxInt32, 1), nil
		},
		serialSource: func(p *core.ParticlePipeline) (func(int, *tracer, int) (beam.Frame, error), error) {
			sim, err := p.NewSim()
			if err != nil {
				return nil, err
			}
			return func(i int, tr *tracer, parent int) (beam.Frame, error) {
				h := tr.begin("beam.period", i, parent)
				sim.RunPeriods(1)
				tr.end(h)
				h = tr.begin("beam.snapshot", i, parent)
				f := sim.Snapshot()
				tr.end(h)
				return f, nil
			}, nil
		},
	}
	return c.run(args)
}

func replayFrames(args params) (*run, error) {
	in := newInputs(args.seed)
	paths, err := in.writeReplayFiles(args.dataDir)
	if err != nil {
		return nil, fmt.Errorf("generating replay files: %w", err)
	}
	c := &particleChain{
		name: "replay_frames",
		in:   in,
		source: func(*core.ParticlePipeline) (core.FrameSource, error) {
			// Enough entries for any run; the stream is cancelled at the
			// deadline.
			list := make([]string, 1<<16)
			for i := range list {
				list[i] = paths[i%len(paths)]
			}
			return core.FrameFileSource(list...), nil
		},
		serialSource: func(*core.ParticlePipeline) (func(int, *tracer, int) (beam.Frame, error), error) {
			return func(i int, tr *tracer, parent int) (beam.Frame, error) {
				h := tr.begin("pario.read", i, parent)
				f, err := pario.ReadFrameFile(paths[i%len(paths)])
				tr.end(h)
				return f, err
			}, nil
		},
	}
	return c.run(args)
}

// frameRec is what the viewer saw of one frame.
type frameRec struct {
	index                  int
	emit, arrive, rendered time.Time
	hash                   [32]byte
	points                 int
}

// emitLog timestamps frames as they leave the source.
type emitLog struct {
	mu    sync.Mutex
	times []time.Time
	bad   []string
}

// wrap times each frame src emits and checks it carries every particle.
func (l *emitLog) wrap(src core.FrameSource) core.FrameSource {
	return func(ctx context.Context, emit func(beam.Frame) bool) error {
		return src(ctx, func(f beam.Frame) bool {
			n := 0
			if f.E != nil {
				n = f.E.Len()
			}
			l.mu.Lock()
			if n != particles {
				l.bad = append(l.bad, fmt.Sprintf("frame %d left the source with %d particles, want %d", len(l.times), n, particles))
			}
			l.times = append(l.times, time.Now())
			l.mu.Unlock()
			return emit(f)
		})
	}
}

func (l *emitLog) at(i int) time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.times[i]
}

// particleStream is a running streamed chain with its viewer state.
type particleStream struct {
	s      *core.ParticleStream
	cancel context.CancelFunc
	emits  *emitLog
}

func (c *particleChain) start() (*particleStream, error) {
	p := c.in.particlePipeline()
	src, err := c.source(p)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ps := &particleStream{cancel: cancel, emits: &emitLog{}}
	ps.s = p.StreamFrames(ctx, ps.emits.wrap(src), core.StreamOptions{})
	return ps, nil
}

// stop cancels the stream and waits for every stage to end.
func (ps *particleStream) stop() error {
	ps.cancel()
	for range ps.s.Out {
	}
	if err := ps.s.Wait(); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// view renders frames as the stream delivers them, until max frames or
// the deadline.
func (c *particleChain) view(ps *particleStream, r *run, deadline time.Time, max int) ([]frameRec, error) {
	var recs []frameRec
	for len(recs) < max && time.Now().Before(deadline) {
		res, ok := <-ps.s.Out
		if !ok {
			if err := ps.s.Wait(); err != nil {
				return recs, err
			}
			return recs, fmt.Errorf("%s: stream ended early", c.name)
		}
		rec := frameRec{index: res.Index, arrive: time.Now(), emit: ps.emits.at(res.Index)}
		r.attempted++
		checkRep(r, res.Index, res.Rep)
		tf, err := core.DefaultTF(res.Rep)
		if err != nil {
			return recs, err
		}
		fb, _, _, err := core.RenderFrame(res.Rep, tf, imageSize, imageSize, particleDir)
		if err != nil {
			return recs, err
		}
		rec.rendered = time.Now()
		rec.hash = fbHash(fb)
		rec.points = len(res.Rep.Points)
		recs = append(recs, rec)
	}
	return recs, nil
}

// checkRep checks a hybrid frame is well formed: a non-empty point set
// within the budget, every point naming a particle of the frame, and a
// volume of the configured resolution.
func checkRep(r *run, i int, rep *hybrid.Representation) {
	switch {
	case rep == nil:
		r.fail("frame %d: no representation", i)
	case len(rep.Points) == 0 || len(rep.Points) > particles/10:
		r.fail("frame %d: %d halo points, want 1..%d", i, len(rep.Points), particles/10)
	case len(rep.OrigIndex) != len(rep.Points):
		r.fail("frame %d: %d origin indices for %d points", i, len(rep.OrigIndex), len(rep.Points))
	case rep.Volume == nil || rep.Volume.Nx != volumeRes || rep.Volume.Ny != volumeRes || rep.Volume.Nz != volumeRes:
		r.fail("frame %d: volume is not %d^3", i, volumeRes)
	default:
		for _, oi := range rep.OrigIndex {
			if oi < 0 || oi >= particles {
				r.fail("frame %d: halo point names particle %d of %d", i, oi, particles)
				return
			}
		}
	}
}

// serialFrame runs frame i through the chain one layer call at a time,
// tracing each call when tr is non-nil.
func (c *particleChain) serialFrame(p *core.ParticlePipeline, next func(int, *tracer, int) (beam.Frame, error),
	i int, tr *tracer) (frameRec, error) {

	rec := frameRec{index: i}
	fh := tr.begin("frame", i, -1)
	defer tr.end(fh)
	f, err := next(i, tr, fh)
	if err != nil {
		return rec, err
	}
	if f.E.Len() != particles {
		return rec, fmt.Errorf("frame %d: %d particles, want %d", i, f.E.Len(), particles)
	}
	h := tr.begin("octree.partition", i, fh)
	t, err := p.Partition(f)
	tr.end(h)
	if err != nil {
		return rec, err
	}
	if len(t.OrigIndex) != particles {
		return rec, fmt.Errorf("frame %d: octree holds %d particles, want %d", i, len(t.OrigIndex), particles)
	}
	h = tr.begin("hybrid.extract", i, fh)
	rep, err := p.Hybrid(t)
	tr.end(h)
	if err != nil {
		return rec, err
	}
	tf, err := core.DefaultTF(rep)
	if err != nil {
		return rec, err
	}
	fb, err := render.NewFramebuffer(imageSize, imageSize)
	if err != nil {
		return rec, err
	}
	cam, err := render.LookAtBounds(rep.Bounds, particleDir, math.Pi/3, 1)
	if err != nil {
		return rec, err
	}
	h = tr.begin("render.pointpass", i, fh)
	rast := volren.RenderPointPass(rep, tf, fb, cam, 1.5, false, volren.PointPassOptions{})
	tr.end(h)
	h = tr.begin("volren.raycast", i, fh)
	vr, err := volren.New(rep.Volume, tf)
	if err != nil {
		return rec, err
	}
	vr.Render(fb, cam)
	tr.end(h)
	if tr != nil {
		tr.count("render.fragments", float64(rast.FragmentCount))
		tr.count("volren.samples", float64(vr.SampleCount))
		tr.count("hybrid.points", float64(len(rep.Points)))
	}
	rec.hash = fbHash(fb)
	rec.points = len(rep.Points)
	return rec, nil
}

// serialRun runs frames 0, 1, ... serially until n frames or the
// deadline, returning the records and the mean ms per frame.
func (c *particleChain) serialRun(n int, deadline time.Time, tr *tracer) ([]frameRec, float64, error) {
	p := c.in.particlePipeline()
	next, err := c.serialSource(p)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	var recs []frameRec
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		rec, err := c.serialFrame(p, next, i, tr)
		if err != nil {
			return recs, 0, err
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("%s: no serial frame finished in time", c.name)
	}
	return recs, ms(time.Since(start)) / float64(len(recs)), nil
}

// compareHashes checks streamed frames against serial frames of the
// same index (streamed == serial).
func compareHashes(r *run, streamed, serial []frameRec) int {
	byIndex := map[int]frameRec{}
	for _, s := range serial {
		byIndex[s.index] = s
	}
	n := 0
	for _, s := range streamed {
		ref, ok := byIndex[s.index]
		if !ok {
			continue
		}
		n++
		if ref.hash != s.hash || ref.points != s.points {
			r.fail("frame %d: streamed framebuffer differs from the serial one", s.index)
		}
	}
	return n
}

func (c *particleChain) run(args params) (*run, error) {
	r := newRun()
	heap := startHeapSampler()
	far := time.Now().Add(time.Hour)

	// Set-up: cold start to the first rendered frame, several times;
	// the last stream goes on into the measured window.
	var setups []float64
	var ps *particleStream
	var recs []frameRec
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if ps, err = c.start(); err != nil {
			return nil, err
		}
		first, err := c.view(ps, r, far, 1)
		if err != nil {
			return nil, err
		}
		setups = append(setups, first[0].rendered.Sub(t0).Seconds())
		if rep < setupReps-1 {
			if err := ps.stop(); err != nil {
				return nil, err
			}
		} else {
			recs = first
		}
	}

	window := time.Duration(args.seconds * float64(time.Second))
	if args.trace {
		window /= 3
	}
	more, err := c.view(ps, r, time.Now().Add(window), math.MaxInt)
	if err != nil {
		return nil, err
	}
	recs = append(recs, more...)
	if err := ps.stop(); err != nil {
		return nil, err
	}
	for _, b := range ps.emits.bad {
		r.fail("%s", b)
	}
	peak := heap.peakMB()
	measured := recs[1:]
	if len(measured) < 3 {
		return nil, fmt.Errorf("%s: only %d frames in the window", c.name, len(measured))
	}
	var rendered, arrivals []time.Time
	var lag, renderMs []float64
	for _, rec := range measured {
		rendered = append(rendered, rec.rendered)
		arrivals = append(arrivals, rec.arrive)
		lag = append(lag, ms(rec.rendered.Sub(rec.emit)))
		renderMs = append(renderMs, ms(rec.rendered.Sub(rec.arrive)))
	}
	streamedMsPerFrame := 1000 / ratePerSecond(rendered)

	if !args.trace {
		// Spot check: the first frames again, one layer call at a time.
		serial, _, err := c.serialRun(checkSpots, far, nil)
		if err != nil {
			return nil, err
		}
		r.attempted += len(serial)
		if compareHashes(r, recs, serial) < checkSpots {
			r.fail("spot check compared fewer than %d frames", checkSpots)
		}
		viewerMetrics(r, setups, peak, arrivals, rendered, lag, renderMs)
		return r, nil
	}

	// Traced run: the same frames serially without and then with
	// spans, so tracing overhead is the difference of the two.
	serial, plainMs, err := c.serialRun(math.MaxInt, time.Now().Add(window), nil)
	if err != nil {
		return nil, err
	}
	compareHashes(r, recs, serial)
	tr := newTracer(true)
	traced, tracedMs, err := c.serialRun(math.MaxInt, time.Now().Add(window), tr)
	if err != nil {
		return nil, err
	}
	if compareHashes(r, recs, traced) == 0 {
		r.fail("no traced frame matched a streamed frame index")
	}
	r.attempted += len(serial) + len(traced)
	layerTotal := tr.setLayers(r, []layerSpec{
		{"beam.period", "beam.period_ms", "beam.alloc_mb"},
		{"beam.snapshot", "beam.snapshot_ms", "beam.alloc_mb"},
		{"pario.read", "pario.read_ms", "pario.alloc_mb"},
		{"octree.partition", "octree.partition_ms", "octree.alloc_mb"},
		{"hybrid.extract", "hybrid.extract_ms", "hybrid.alloc_mb"},
		{"render.pointpass", "render.pointpass_ms", "render.alloc_mb"},
		{"volren.raycast", "volren.raycast_ms", "volren.alloc_mb"},
	})
	for _, name := range []string{"render.fragments", "volren.samples", "hybrid.points"} {
		r.metrics[name] = tr.countMedian(name)
	}
	r.metrics["pipeline.overlap_ms"] = layerTotal/float64(len(traced)) - streamedMsPerFrame
	r.metrics["trace.overhead_ms"] = tracedMs - plainMs
	tr.report(c.name, len(traced), streamedMsPerFrame)
	return r, tr.write(filepath.Join(args.traceDir, fmt.Sprintf("%s-seed%d.jsonl", c.name, args.seed)))
}
