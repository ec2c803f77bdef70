package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call. Spans of one frame or request share
// its id; parent is the index of the enclosing span (-1 for none).
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the tracer started
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"`
	ID     int     `json:"id"` // frame or request id
	Alloc  uint64  `json:"alloc_bytes"`

	allocAt uint64
}

// tracer keeps spans in memory until the run ends. With allocs set it
// reads the allocator's cumulative byte count around every span, which
// stops the world, so it is only used where the traced calls run one
// at a time.
//
// A nil *tracer is valid and records nothing, so untraced passes run
// the same code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	allocs bool
	spans  []span
	counts map[string][]float64
}

func newTracer(allocs bool) *tracer {
	return &tracer{t0: time.Now(), allocs: allocs, counts: map[string][]float64{}}
}

func (t *tracer) now() float64 { return ms(time.Since(t.t0)) }

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, id, parent int) int {
	if t == nil {
		return -1
	}
	var a uint64
	if t.allocs {
		a = totalAlloc()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, ID: id, allocAt: a})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	end := t.now()
	var a uint64
	if t.allocs {
		a = totalAlloc()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[h]
	s.End = end
	if t.allocs {
		s.Alloc = a - s.allocAt
	}
}

// record adds a span whose interval was timed by the caller.
func (t *tracer) record(name string, id, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0)), Parent: parent, ID: id})
}

// count records a work count observed at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] = append(t.counts[name], v)
}

// countMedian is the median of the counts recorded under name.
func (t *tracer) countMedian(name string) float64 { return median(t.counts[name]) }

// selfMs returns each span's duration minus the part its children
// cover. Children of one parent never overlap in the serial traced
// passes, so their durations add.
func (t *tracer) selfMs() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerStats summarizes the spans named name: the median self time per
// call in ms, the median allocation per call in MB, and the total self
// time.
func (t *tracer) layerStats(name string) (medMs, medMB, totalMs float64) {
	self := t.selfMs()
	var times, allocs []float64
	for i, s := range t.spans {
		if s.Name == name {
			times = append(times, self[i])
			allocs = append(allocs, float64(s.Alloc)/(1<<20))
		}
	}
	return median(times), median(allocs), sum(times)
}

// layerSpec names a traced call and the metrics its spans feed.
type layerSpec struct{ span, ms, alloc string }

// setLayers sets each layer's median self time per call and adds its
// median allocation per call to the layer's alloc metric (a layer with
// two calls per frame sums them). It returns the total self time of
// all the calls.
func (t *tracer) setLayers(r *run, specs []layerSpec) float64 {
	total := 0.0
	for _, l := range specs {
		med, mb, sum := t.layerStats(l.span)
		r.metrics[l.ms] = med
		r.metrics[l.alloc] += mb
		total += sum
	}
	return total
}

// report prints each traced layer's share of the serial frame as
// comment lines ahead of the result.
func (t *tracer) report(workload string, frames int, streamedMs float64) {
	self := t.selfMs()
	totals := map[string]float64{}
	all := 0.0
	for i, s := range t.spans {
		totals[s.Name] += self[i]
		all += self[i]
	}
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return totals[names[i]] > totals[names[j]] })
	fmt.Printf("# %s traced: %d frames, %.1f ms/frame serial traced, %.1f ms/frame streamed untraced\n",
		workload, frames, all/float64(frames), streamedMs)
	for _, n := range names {
		fmt.Printf("#   %-18s %8.2f ms/frame %5.1f%%\n", n, totals[n]/float64(frames), 100*totals[n]/all)
	}
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
