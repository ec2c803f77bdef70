package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/beam"
	"repro/internal/hybrid"
	"repro/internal/sos"
)

// streamFixture returns a small fixed-seed pipeline and three
// captured frames.
func streamFixture(t *testing.T, n int) (*ParticlePipeline, []beam.Frame) {
	t.Helper()
	p := NewParticlePipeline(n)
	p.Extract.VolumeRes = 16
	sim, err := p.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	var frames []beam.Frame
	for i := 0; i < 3; i++ {
		sim.RunPeriods(2)
		frames = append(frames, sim.Snapshot())
	}
	return p, frames
}

// gatedSource emits frames in order, holding frame i until gates[i]
// (when present) is closed, so a test can change the stream between
// frames with none of the later frames already in flight.
func gatedSource(frames []beam.Frame, gates map[int]chan struct{}) FrameSource {
	return func(ctx context.Context, emit func(beam.Frame) bool) error {
		for i, f := range frames {
			if g, ok := gates[i]; ok {
				select {
				case <-g:
				case <-ctx.Done():
					return nil
				}
			}
			if !emit(f) {
				return nil
			}
		}
		return nil
	}
}

// TestStreamMatchesSerialBitIdentical: the streaming engine must
// produce byte-for-byte the same hybrid representations as the serial
// partition+extract path on a fixed-seed 3-frame run, including with
// multi-worker stages.
func TestStreamMatchesSerialBitIdentical(t *testing.T) {
	p, frames := streamFixture(t, 4000)

	// Serial path: partition + extract one frame at a time.
	var want [][]byte
	for _, f := range frames {
		tree, err := p.Partition(f)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Hybrid(tree)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Write(&buf); err != nil {
			t.Fatal(err)
		}
		want = append(want, buf.Bytes())
	}

	// Streaming path with stage overlap and per-stage workers.
	s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
		PartitionWorkers: 3,
		ExtractWorkers:   2,
		Buffer:           2,
	})
	got := 0
	for r := range s.Out {
		if r.Index != got {
			t.Fatalf("result %d arrived with index %d (order violated)", got, r.Index)
		}
		var buf bytes.Buffer
		if err := r.Rep.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want[got]) {
			t.Errorf("frame %d: streaming representation differs from serial (%d vs %d bytes)",
				got, buf.Len(), len(want[got]))
		}
		got++
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != len(frames) {
		t.Fatalf("stream emitted %d frames, want %d", got, len(frames))
	}
}

// TestStreamFromSim drives the stream from a live simulation source
// with rendering enabled and checks the per-frame outputs.
func TestStreamFromSim(t *testing.T) {
	p := NewParticlePipeline(3000)
	p.Extract.VolumeRes = 8
	sim, err := p.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	s := p.StreamFrames(context.Background(), SimSource(sim, 3, 1), StreamOptions{
		KeepFrames: true,
		KeepTrees:  true,
		Render:     &RenderOptions{Width: 48, Height: 48},
	})
	n := 0
	for r := range s.Out {
		if r.Frame.E == nil {
			t.Fatal("KeepFrames did not retain the ensemble")
		}
		if r.Tree == nil {
			t.Fatal("KeepTrees did not retain the tree")
		}
		if r.Rep == nil || r.Rep.NumPoints() == 0 {
			t.Fatal("no hybrid representation extracted")
		}
		if r.FB == nil || r.FB.CoveredPixels(0.005) == 0 {
			t.Fatal("render stage produced a black frame")
		}
		s.RecycleFB(r.FB)
		n++
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("got %d frames, want 3", n)
	}
}

// TestStreamSkipExtract: the partition-only stream (the paper's
// partitioning program) keeps trees and skips representations.
func TestStreamSkipExtract(t *testing.T) {
	p, frames := streamFixture(t, 2000)
	s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
		SkipExtract: true,
	})
	n := 0
	for r := range s.Out {
		if r.Tree == nil {
			t.Fatal("partition-only stream dropped the tree")
		}
		if r.Rep != nil {
			t.Fatal("partition-only stream extracted anyway")
		}
		n++
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if n != len(frames) {
		t.Fatalf("got %d frames, want %d", n, len(frames))
	}
}

// TestStreamRenderRequiresExtract: Render with SkipExtract is a
// contradiction and must fail the stream instead of silently emitting
// nil framebuffers.
func TestStreamRenderRequiresExtract(t *testing.T) {
	p, frames := streamFixture(t, 2000)
	s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
		SkipExtract: true,
		Render:      &RenderOptions{Width: 32, Height: 32},
	})
	for range s.Out {
		t.Fatal("contradictory stream emitted a frame")
	}
	if err := s.Wait(); err == nil {
		t.Fatal("Render+SkipExtract accepted")
	}
}

// TestStreamCancellation: aborting a stream mid-frame returns promptly
// and leaves no goroutines behind.
func TestStreamCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	p := NewParticlePipeline(2000)
	p.Extract.VolumeRes = 8
	sim, err := p.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	// A long stream we will abandon after one frame.
	s := p.StreamFrames(context.Background(), SimSource(sim, 1000, 1), StreamOptions{
		PartitionWorkers: 2,
		ExtractWorkers:   2,
		Buffer:           2,
	})
	if _, ok := <-s.Out; !ok {
		t.Fatal("stream closed before first frame")
	}
	s.Cancel()

	done := make(chan error, 1)
	go func() { done <- s.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return promptly after Cancel")
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after cancel", before, runtime.NumGoroutine())
}

// TestProcessFrameWrapsStream: the one-shot path must agree with an
// explicitly streamed run (it is the same code).
func TestProcessFrameWrapsStream(t *testing.T) {
	p, frames := streamFixture(t, 2000)
	rep, err := p.ProcessFrame(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	s := p.StreamFrames(context.Background(), FrameSliceSource(frames[0]), StreamOptions{})
	var streamed *hybrid.Representation
	for r := range s.Out {
		streamed = r.Rep
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := rep.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := streamed.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("ProcessFrame and StreamFrames disagree")
	}
}

// TestFieldStream runs the solve → trace → render chain as a stream.
func TestFieldStream(t *testing.T) {
	p := NewFieldPipeline(6, 10)
	s, err := p.StreamSolve(context.Background(), FieldStreamOptions{
		Frames:          2,
		PeriodsPerFrame: 1,
		TraceWorkers:    2,
		Render:          &FieldRenderOptions{Technique: sos.TechSOS, Width: 48, Height: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	var lastTime float64
	n := 0
	for r := range s.Out {
		if r.Index != n {
			t.Fatalf("frame %d arrived with index %d", n, r.Index)
		}
		if r.Frame.Time <= lastTime {
			t.Errorf("frame %d time %g did not advance past %g", n, r.Frame.Time, lastTime)
		}
		lastTime = r.Frame.Time
		if r.E == nil || len(r.E.Lines) == 0 {
			t.Fatal("no electric lines traced")
		}
		if r.FB == nil || r.Stats.Triangles == 0 {
			t.Fatal("render stage drew nothing")
		}
		n++
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("got %d frames, want 2", n)
	}
}

// TestFieldStreamValidation rejects degenerate options.
func TestFieldStreamValidation(t *testing.T) {
	p := NewFieldPipeline(6, 5)
	if _, err := p.StreamSolve(context.Background(), FieldStreamOptions{Frames: 0, PeriodsPerFrame: 1}); err == nil {
		t.Error("Frames=0 accepted")
	}
	if _, err := p.StreamSolve(context.Background(), FieldStreamOptions{Frames: 1, PeriodsPerFrame: 0}); err == nil {
		t.Error("PeriodsPerFrame=0 accepted")
	}
}
