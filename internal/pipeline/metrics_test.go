package pipeline

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestStageConfigValidation pins the satellite contract: the engine
// rejects configs it used to paper over, failing the pipeline with a
// named-stage error instead of silently running one worker.
func TestStageConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  StageConfig
		want string
	}{
		{"zero workers", StageConfig{Name: "z"}, "Workers must be >= 1"},
		{"negative workers", StageConfig{Name: "n", Workers: -2}, "Workers must be >= 1"},
		{"negative buf", StageConfig{Name: "b", Workers: 1, Buf: -1}, "Buf must be >= 0"},
		{"inverted bounds", StageConfig{Name: "i", Workers: 4, MinWorkers: 4, MaxWorkers: 2}, "MaxWorkers 2 < MinWorkers 4"},
		{"start above max", StageConfig{Name: "a", Workers: 9, MaxWorkers: 4}, "outside"},
		{"start below min", StageConfig{Name: "u", Workers: 1, MinWorkers: 2, MaxWorkers: 4}, "outside"},
		{"min without max", StageConfig{Name: "m", Workers: 3, MinWorkers: 2}, "without MaxWorkers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New(context.Background())
			out := Map(p, FromSlice(p, 1, []int{1, 2}), tc.cfg,
				func(_ context.Context, v int) (int, error) { return v, nil })
			for range out {
			}
			err := p.Wait()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Wait() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestStageConfigValidationAcceptsElastic proves a well-formed elastic
// config passes and the stage runs.
func TestStageConfigValidationAcceptsElastic(t *testing.T) {
	p := New(context.Background())
	out := Map(p, FromSlice(p, 2, []int{1, 2, 3}),
		StageConfig{Name: "ok", Workers: 2, MinWorkers: 1, MaxWorkers: 4},
		func(_ context.Context, v int) (int, error) { return v * v, nil })
	got := Collect(p, out)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 3 {
		t.Fatalf("got %d results", len(*got))
	}
}

// TestSnapshotTelemetry runs a chain with a deliberately slow sink and
// checks the snapshot table: chain order, kinds, in-flight/done
// accounting, a critical-path mark on the bottleneck, and the final
// all-finished state.
func TestSnapshotTelemetry(t *testing.T) {
	p := New(context.Background())
	const frames = 40
	src := FromSlice(p, 1, make([]int, frames))
	mapped := Map(p, src, StageConfig{Name: "work", Workers: 1},
		func(_ context.Context, v int) (int, error) {
			time.Sleep(200 * time.Microsecond)
			return v, nil
		})
	Sink(p, mapped, "drain", func(_ context.Context, v int) error {
		// Far above timer granularity so the bottleneck is unambiguous.
		time.Sleep(4 * time.Millisecond)
		return nil
	})

	time.Sleep(50 * time.Millisecond)
	snap := p.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("%d stages in snapshot, want 3", len(snap))
	}
	wantNames := []string{"source", "work", "drain"}
	wantKinds := []StageKind{KindSource, KindMap, KindSink}
	for i, s := range snap {
		if s.Name != wantNames[i] || s.Kind != wantKinds[i] {
			t.Errorf("stage %d = %s/%s, want %s/%s", i, s.Name, s.Kind, wantNames[i], wantKinds[i])
		}
	}
	if !snap[2].Critical {
		t.Errorf("critical stage not the slow sink: %+v", snap)
	}
	if snap[2].ServiceEWMA < 2*time.Millisecond {
		t.Errorf("sink service EWMA %v, want >= 2ms", snap[2].ServiceEWMA)
	}
	if snap[1].Done == 0 || snap[1].Throughput <= 0 {
		t.Errorf("map stage shows no progress mid-run: done=%d tput=%g", snap[1].Done, snap[1].Throughput)
	}

	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	final := p.Snapshot()
	for _, s := range final {
		if !s.Finished {
			t.Errorf("stage %s not finished after Wait", s.Name)
		}
		if s.Done != frames {
			t.Errorf("stage %s done=%d, want %d", s.Name, s.Done, frames)
		}
		if s.InFlight != 0 {
			t.Errorf("stage %s in-flight=%d after drain", s.Name, s.InFlight)
		}
	}
}

// TestSetStageWorkersBounds pins the control surface: unknown or fixed
// stages refuse, elastic stages clamp to their bounds.
func TestSetStageWorkersBounds(t *testing.T) {
	p := New(context.Background())
	block := make(chan struct{})
	out := Map(p, FromSlice(p, 1, make([]int, 4)),
		StageConfig{Name: "elastic", Workers: 2, MaxWorkers: 4},
		func(ctx context.Context, v int) (int, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return v, nil
		})
	fixed := Map(p, out, StageConfig{Name: "fixed", Workers: 1},
		func(_ context.Context, v int) (int, error) { return v, nil })
	Collect(p, fixed)

	if p.SetStageWorkers("nope", 3) {
		t.Error("SetStageWorkers on unknown stage reported true")
	}
	if p.SetStageWorkers("fixed", 3) {
		t.Error("SetStageWorkers on fixed stage reported true")
	}
	if !p.SetStageWorkers("elastic", 99) {
		t.Error("SetStageWorkers on elastic stage reported false")
	}
	for _, s := range p.Snapshot() {
		if s.Name == "elastic" && s.Workers != 4 {
			t.Errorf("elastic workers = %d after clamped resize, want 4", s.Workers)
		}
	}
	close(block)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestMapExecOrderDeterministicAcrossResizes is the satellite
// determinism proof: an elastic stage thrashed between 1 and 8 workers
// mid-stream still emits every value, in input order, with identical
// content — rebalancing is invisible in the output.
func TestMapExecOrderDeterministicAcrossResizes(t *testing.T) {
	p := New(context.Background())
	const n = 400
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	out := Map(p, FromSlice(p, 4, vals),
		StageConfig{Name: "thrash", Workers: 2, MinWorkers: 1, MaxWorkers: 8},
		func(_ context.Context, v int) (int, error) {
			// Skewed latency: later frames often finish before earlier
			// ones, so ordering is genuinely exercised while workers
			// come and go.
			time.Sleep(time.Duration((v*37)%11) * 50 * time.Microsecond)
			return v * 3, nil
		})
	got := Collect(p, out)

	stop := make(chan struct{})
	resized := make(chan struct{})
	go func() {
		defer close(resized)
		sizes := []int{1, 8, 3, 1, 6, 2, 8, 1, 4}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.SetStageWorkers("thrash", sizes[i%len(sizes)])
			time.Sleep(500 * time.Microsecond)
		}
	}()
	err := p.Wait()
	close(stop)
	<-resized
	if err != nil {
		t.Fatal(err)
	}
	if len(*got) != n {
		t.Fatalf("%d of %d values emitted", len(*got), n)
	}
	for i, v := range *got {
		if v != i*3 {
			t.Fatalf("out[%d] = %d, want %d: rebalance disturbed order", i, v, i*3)
		}
	}
}

// TestSourceReportsGeneratorTime: a source's service time is the
// generator's time between emits, so a source that works 5 ms per
// item shows that cost in the stage table instead of 0.
func TestSourceReportsGeneratorTime(t *testing.T) {
	p := New(context.Background())
	const items = 8
	out := Source(p, 1, func(_ context.Context, emit func(int) bool) error {
		for i := 0; i < items; i++ {
			time.Sleep(5 * time.Millisecond)
			if !emit(i) {
				return nil
			}
		}
		return nil
	})
	Collect(p, out)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	src := p.Snapshot()[0]
	if src.Kind != KindSource || src.Done != items {
		t.Fatalf("source row %+v, want kind source with %d done", src, items)
	}
	if src.ServiceEWMA < 4*time.Millisecond {
		t.Errorf("source service EWMA %v, want >= 4ms for a 5ms-per-item generator", src.ServiceEWMA)
	}
}
