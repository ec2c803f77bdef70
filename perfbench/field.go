package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/seeding"
	"repro/internal/sos"
)

const (
	fieldPeriods = 0.5 // drive periods solved per frame
	// sessionFrames bounds one solve at 50 drive periods; the viewer
	// then starts a new solve from rest. At 12 cells per radius the
	// solver's field energy starts growing without bound after about
	// 150 drive periods (see NOTES.md), and a workload must not run
	// into that.
	sessionFrames = 100
)

// fieldRec is what the viewer saw of one field frame.
type fieldRec struct {
	index            int
	arrive, rendered time.Time
	eLines, bLines   int
	hash             [32]byte
}

// fieldStream is the viewer's current solve session.
type fieldStream struct {
	in *inputs
	fp *core.FieldPipeline
	s  *pipeline.Stream[core.FieldStreamResult]
}

func fieldStart(in *inputs) (*fieldStream, error) {
	fs := &fieldStream{in: in}
	return fs, fs.startSession()
}

// startSession starts a new solve from rest.
func (fs *fieldStream) startSession() error {
	fs.fp = fs.in.fieldPipeline()
	var err error
	fs.s, err = fs.fp.StreamSolve(context.Background(), core.FieldStreamOptions{
		Frames: sessionFrames, PeriodsPerFrame: fieldPeriods, TraceB: true,
	})
	return err
}

func (fs *fieldStream) stop() error {
	fs.s.Cancel()
	if err := fs.s.Wait(); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// viewField renders each frame's electric lines as the stream delivers
// them, until max frames or the deadline.
func viewField(fs *fieldStream, r *run, deadline time.Time, max int) ([]fieldRec, error) {
	var recs []fieldRec
	for len(recs) < max && time.Now().Before(deadline) {
		res, ok := <-fs.s.Out
		if !ok {
			if err := fs.s.Wait(); err != nil {
				return recs, err
			}
			if err := fs.startSession(); err != nil {
				return recs, err
			}
			continue
		}
		rec := fieldRec{index: res.Index, arrive: time.Now()}
		r.attempted++
		if res.E == nil || len(res.E.Lines) == 0 || res.B == nil || len(res.B.Lines) == 0 {
			r.fail("field frame %d: missing electric or magnetic lines", res.Index)
			continue
		}
		fb, _, err := fs.fp.RenderLines(res.E.Lines, sos.TechSOS, imageSize, imageSize, fieldDir)
		if err != nil {
			return recs, err
		}
		rec.rendered = time.Now()
		rec.hash = fbHash(fb)
		rec.eLines, rec.bLines = len(res.E.Lines), len(res.B.Lines)
		recs = append(recs, rec)
	}
	return recs, nil
}

// fieldSerial runs frames through Solve, TraceE, TraceB and
// RenderLines one call at a time, in sessions like the stream's, until
// n frames or the deadline.
func fieldSerial(in *inputs, n int, deadline time.Time, tr *tracer) ([]fieldRec, float64, error) {
	var fp *core.FieldPipeline
	start := time.Now()
	var recs []fieldRec
	for k := 0; k < n && time.Now().Before(deadline); k++ {
		i := k % sessionFrames
		if i == 0 {
			fp = in.fieldPipeline()
		}
		fh := tr.begin("frame", i, -1)
		h := tr.begin("emsim.solve", i, fh)
		frame, err := fp.Solve(fieldPeriods)
		tr.end(h)
		if err != nil {
			return nil, 0, err
		}
		var e, b *seeding.Result
		h = tr.begin("seeding.trace_e", i, fh)
		e, err = fp.TraceE(frame)
		tr.end(h)
		if err != nil {
			return nil, 0, err
		}
		h = tr.begin("seeding.trace_b", i, fh)
		b, err = fp.TraceB(frame)
		tr.end(h)
		if err != nil {
			return nil, 0, err
		}
		h = tr.begin("sos.render", i, fh)
		fb, st, err := fp.RenderLines(e.Lines, sos.TechSOS, imageSize, imageSize, fieldDir)
		tr.end(h)
		tr.end(fh)
		if err != nil {
			return nil, 0, err
		}
		if tr != nil {
			tr.count("seeding.lines", float64(len(e.Lines)+len(b.Lines)))
			tr.count("seeding.line_points", float64(linePoints(e)+linePoints(b)))
			tr.count("sos.triangles", float64(st.Triangles))
		}
		recs = append(recs, fieldRec{index: i, eLines: len(e.Lines), bLines: len(b.Lines), hash: fbHash(fb)})
	}
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("field_solve: no serial frame finished in time")
	}
	return recs, ms(time.Since(start)) / float64(len(recs)), nil
}

func linePoints(res *seeding.Result) int {
	n := 0
	for _, l := range res.Lines {
		n += l.NumPoints()
	}
	return n
}

// compareField checks streamed against serial frames of the same index.
func compareField(r *run, streamed, serial []fieldRec) int {
	byIndex := map[int]fieldRec{}
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
		if ref.eLines != s.eLines || ref.bLines != s.bLines || ref.hash != s.hash {
			r.fail("field frame %d: streamed lines or framebuffer differ from the serial path", s.index)
		}
	}
	return n
}

func fieldSolve(args params) (*run, error) {
	in := newInputs(args.seed)
	r := newRun()
	heap := startHeapSampler()
	far := time.Now().Add(time.Hour)

	var setups []float64
	var fs *fieldStream
	var recs []fieldRec
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if fs, err = fieldStart(in); err != nil {
			return nil, err
		}
		first, err := viewField(fs, r, far, 1)
		if err != nil {
			return nil, err
		}
		setups = append(setups, first[0].rendered.Sub(t0).Seconds())
		if rep < setupReps-1 {
			if err := fs.stop(); err != nil {
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
	more, err := viewField(fs, r, time.Now().Add(window), math.MaxInt)
	if err != nil {
		return nil, err
	}
	recs = append(recs, more...)
	if err := fs.stop(); err != nil {
		return nil, err
	}
	peak := heap.peakMB()
	measured := recs[1:]
	if len(measured) < 3 {
		return nil, fmt.Errorf("field_solve: only %d frames in the window", len(measured))
	}
	var arrivals, rendered []time.Time
	var renderMs []float64
	for _, rec := range measured {
		arrivals = append(arrivals, rec.arrive)
		rendered = append(rendered, rec.rendered)
		renderMs = append(renderMs, ms(rec.rendered.Sub(rec.arrive)))
	}
	streamedMsPerFrame := 1000 / ratePerSecond(rendered)

	if !args.trace {
		serial, _, err := fieldSerial(in, checkSpots, far, nil)
		if err != nil {
			return nil, err
		}
		r.attempted += len(serial)
		if compareField(r, recs, serial) < checkSpots {
			r.fail("spot check compared fewer than %d frames", checkSpots)
		}
		// StreamSolve's source is internal, so a frame's lag is timed
		// from the moment the stream hands it to the viewer.
		viewerMetrics(r, setups, peak, arrivals, rendered, renderMs, renderMs)
		return r, nil
	}

	serial, plainMs, err := fieldSerial(in, math.MaxInt, time.Now().Add(window), nil)
	if err != nil {
		return nil, err
	}
	compareField(r, recs, serial)
	tr := newTracer(true)
	traced, tracedMs, err := fieldSerial(in, math.MaxInt, time.Now().Add(window), tr)
	if err != nil {
		return nil, err
	}
	if compareField(r, recs, traced) == 0 {
		r.fail("no traced field frame matched a streamed frame index")
	}
	r.attempted += len(serial) + len(traced)
	layerTotal := tr.setLayers(r, []layerSpec{
		{"emsim.solve", "emsim.solve_ms", "emsim.alloc_mb"},
		{"seeding.trace_e", "seeding.trace_e_ms", "seeding.alloc_mb"},
		{"seeding.trace_b", "seeding.trace_b_ms", "seeding.alloc_mb"},
		{"sos.render", "sos.render_ms", "sos.alloc_mb"},
	})
	for _, name := range []string{"seeding.lines", "seeding.line_points", "sos.triangles"} {
		r.metrics[name] = tr.countMedian(name)
	}
	r.metrics["pipeline.overlap_ms"] = layerTotal/float64(len(traced)) - streamedMsPerFrame
	r.metrics["trace.overhead_ms"] = tracedMs - plainMs
	tr.report("field_solve", len(traced), streamedMsPerFrame)
	return r, tr.write(filepath.Join(args.traceDir, fmt.Sprintf("field_solve-seed%d.jsonl", args.seed)))
}
