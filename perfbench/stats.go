package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/render"
)

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// intervalsMs returns the gaps between successive times, in ms.
func intervalsMs(ts []time.Time) []float64 {
	var out []float64
	for i := 1; i < len(ts); i++ {
		out = append(out, ms(ts[i].Sub(ts[i-1])))
	}
	return out
}

// ratePerSecond is the steady-state rate of the events at ts: events
// after the first, over the time they span.
func ratePerSecond(ts []time.Time) float64 {
	if len(ts) < 2 {
		return 0
	}
	return float64(len(ts)-1) / ts[len(ts)-1].Sub(ts[0]).Seconds()
}

// viewerMetrics sets the end-to-end metrics of a closed-loop frame
// workload from its cold starts and what its viewer saw of each frame:
// arrival and render-done times, lag in ms and render time in ms.
func viewerMetrics(r *run, setups []float64, peakMB float64, arrive, rendered []time.Time, lag, renderMs []float64) {
	gets := intervalsMs(arrive)
	r.metrics["setup_s"] = median(setups)
	r.metrics["frames_per_s"] = ratePerSecond(rendered)
	r.metrics["frame_lag_p50_ms"] = median(lag)
	r.metrics["insitu_lag_p50_ms"] = median(lag)
	r.metrics["peak_heap_mb"] = peakMB
	r.metrics["get_p50_ms"] = median(gets)
	r.metrics["render_p50_ms"] = median(renderMs)
	printTail("get", gets)
	printTail("render", renderMs)
}

// printTail prints the p90 of a latency sample as a comment line, with
// how many samples it rests on.
func printTail(name string, xs []float64) {
	p90 := quantile(xs, 0.9)
	beyond := 0
	for _, x := range xs {
		if x > p90 {
			beyond++
		}
	}
	fmt.Printf("# %s p90 %.3f ms: %d samples, %d beyond it\n", name, p90, len(xs), beyond)
}

// fbHash fingerprints a framebuffer's color and depth planes bit for
// bit.
func fbHash(fb *render.Framebuffer) [32]byte {
	h := sha256.New()
	buf := make([]byte, 0, 4*len(fb.Color))
	for _, v := range fb.Color {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	h.Write(buf)
	buf = buf[:0]
	for _, v := range fb.Depth {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	h.Write(buf)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// heapSampler tracks the peak of live heap objects by polling
// runtime/metrics, which reads without stopping the world.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak.Load()) / (1 << 20)
}
