package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/remote"
	"repro/internal/volren"
)

// The open-loop traffic of insitu_serve runs in 200 ms cycles: a
// publish, a render 50 ms later and a get 150 ms later. Each request
// usually goes out after the previous one has finished, so its latency
// does not hinge on how the seed's jitter happens to line requests up
// with each other.
const (
	cycle        = 200 * time.Millisecond
	renderOffset = 50 * time.Millisecond
	getOffset    = 150 * time.Millisecond
	ringCap      = 4
	// Every third render repeats the previous view, so about a third
	// hit the render cache; the median then falls among uncached
	// renders instead of on the boundary between the two.
	repeatEvery = 3
	maxInFlight = 16 // a backlog this deep means the service fell behind
	stillChecks = 8  // uncached renders re-rendered locally per half
)

// served is the service under test with its two client connections:
// an inline subscriber and an open-loop viewer.
type served struct {
	ring  *remote.LiveRing
	svc   *remote.Service
	subC  *remote.Client
	viewC *remote.Client
	sub   *remote.Subscription
}

func startServed() (*served, error) {
	s := &served{}
	var err error
	if s.ring, err = remote.NewLiveRing(ringCap); err != nil {
		return nil, err
	}
	if s.svc, err = remote.NewService("127.0.0.1:0", s.ring); err != nil {
		return nil, err
	}
	if s.subC, err = remote.Dial(s.svc.Addr()); err != nil {
		s.close()
		return nil, err
	}
	if s.viewC, err = remote.Dial(s.svc.Addr()); err != nil {
		s.close()
		return nil, err
	}
	if s.sub, err = s.subC.SubscribeWith(remote.SubscribeOptions{InlineFrames: true}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *served) close() {
	if s.sub != nil {
		s.sub.Close()
	}
	for _, c := range []*remote.Client{s.subC, s.viewC} {
		if c != nil {
			c.Close()
		}
	}
	if s.svc != nil {
		s.svc.Close()
	}
}

// renderReq is one Render the viewer sent and what came back.
type renderReq struct {
	p        remote.RenderParams
	repeat   bool // same params as the previous render
	traced   bool
	latency  float64 // ms from due time
	rtt      float64 // ms from send
	bytes    int64
	hash     [32]byte
	received bool
}

// serveLog collects the run's observations from its goroutines.
type serveLog struct {
	mu         sync.Mutex
	pubStart   map[int]time.Time
	pubTraced  []float64
	decoded    []time.Time
	lag        []float64
	decodeMs   []float64
	getLat     [2][]float64 // [untraced, traced]
	getBytes   []float64
	renders    []*renderReq
	late       []float64
	inflight   []float64
	lastPushed int
}

func insituServe(args params) (*run, error) {
	in := newInputs(args.seed)
	reps, encs, err := in.servedFrames()
	if err != nil {
		return nil, fmt.Errorf("precomputing served frames: %w", err)
	}
	r := newRun()
	heap := startHeapSampler()

	// Set-up: service up, both connections made and subscribed, and the
	// first frame published, pushed, fetched and rendered.
	var setups []float64
	var s *served
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if s, err = startServed(); err != nil {
			return nil, err
		}
		if err := s.firstImage(r, reps[0], encs[0], in); err != nil {
			s.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			s.close()
		}
	}
	defer s.close()

	window := time.Duration(args.seconds * float64(time.Second))
	start := time.Now().Add(50 * time.Millisecond)
	tracedFrom := start.Add(window) // never, unless tracing
	var tr *tracer
	if args.trace {
		tracedFrom = start.Add(window / 2)
		tr = newTracer(false)
	}
	lg := &serveLog{pubStart: map[int]time.Time{}}
	var latest atomic.Int64 // newest published index
	published := 1          // frame 0 went out during set-up

	// Subscriber: decode every inline push and check it against the
	// encoding that was published.
	var subWG sync.WaitGroup
	subWG.Add(1)
	go func() {
		defer subWG.Done()
		for u := range s.sub.Frames {
			t0 := time.Now()
			match := bytes.Equal(u.Payload, encs[u.Index%servedK])
			rep, err := u.Decode()
			t1 := time.Now()
			lg.mu.Lock()
			switch {
			case err != nil:
				r.fail("push of frame %d: %v", u.Index, err)
			case !match || len(rep.Points) != len(reps[u.Index%servedK].Points):
				r.fail("push of frame %d does not match the published encoding", u.Index)
			default:
				if pub, ok := lg.pubStart[u.Index]; ok {
					lg.decoded = append(lg.decoded, t1)
					lg.lag = append(lg.lag, ms(t1.Sub(pub)))
					if t0.After(tracedFrom) {
						lg.decodeMs = append(lg.decodeMs, ms(t1.Sub(t0)))
						tr.record("hybrid.decode", u.Index, -1, t0, t1)
					}
				}
			}
			lg.lastPushed = u.Index
			lg.mu.Unlock()
		}
	}()

	// Publisher: the writes, on their own open-loop schedule.
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	pubDue := in.schedule(start, window, cycle, 0)
	go func() {
		defer pubWG.Done()
		for _, due := range pubDue {
			sleepUntil(due)
			idx := published
			t0 := time.Now()
			lg.mu.Lock()
			lg.pubStart[idx] = t0
			lg.late = append(lg.late, ms(t0.Sub(due)))
			lg.mu.Unlock()
			err := s.ring.Publish(idx, reps[idx%servedK])
			t1 := time.Now()
			if err != nil {
				lg.mu.Lock()
				r.fail("publish %d: %v", idx, err)
				lg.mu.Unlock()
				continue
			}
			latest.Store(int64(idx))
			published++
			if t0.After(tracedFrom) {
				lg.mu.Lock()
				lg.pubTraced = append(lg.pubTraced, ms(t1.Sub(t0)))
				tr.record("remote.publish", idx, -1, t0, t1)
				lg.mu.Unlock()
			}
		}
	}()

	// Viewer: Gets and Renders on one connection, each sent at its due
	// time whether or not earlier ones have answered.
	type event struct {
		due    time.Time
		render bool
	}
	var events []event
	for _, d := range in.schedule(start, window, cycle, getOffset) {
		events = append(events, event{due: d})
	}
	newViews := 0
	for k, d := range in.schedule(start, window, cycle, renderOffset) {
		events = append(events, event{due: d, render: true})
		if k%repeatEvery != repeatEvery-1 {
			newViews++
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].due.Before(events[j].due) })
	// The orbit goes round whole circles, one per 40 new views or so,
	// so every run sees the same spread of view costs whatever its
	// starting angle.
	orbitStep := 2 * math.Pi * math.Max(1, math.Round(float64(newViews)/40)) / float64(newViews)

	var reqWG sync.WaitGroup
	var inflight atomic.Int64
	var prev remote.RenderParams
	views := 0
	for k, ev := range events {
		sleepUntil(ev.due)
		sent := time.Now()
		traced := sent.After(tracedFrom)
		lg.mu.Lock()
		lg.late = append(lg.late, ms(sent.Sub(ev.due)))
		lg.inflight = append(lg.inflight, float64(inflight.Load()))
		lg.mu.Unlock()
		r.attempted++
		if inflight.Load() >= maxInFlight {
			r.fail("backlog of %d requests in flight", inflight.Load())
			continue
		}
		frame := int(latest.Load())
		var req *renderReq
		if ev.render {
			n := len(lg.renders)
			if n%repeatEvery == repeatEvery-1 {
				req = &renderReq{p: prev, repeat: true}
			} else {
				req = &renderReq{p: remote.RenderParams{
					Frame: frame, Width: imageSize, Height: imageSize,
					ViewDir: orbitView(in.orbit0 + orbitStep*float64(views)),
				}}
				views++
			}
			req.traced = traced
			prev = req.p
			lg.mu.Lock()
			lg.renders = append(lg.renders, req)
			lg.mu.Unlock()
		}
		inflight.Add(1)
		reqWG.Add(1)
		go func(k int, due, sent time.Time, req *renderReq) {
			defer reqWG.Done()
			defer inflight.Add(-1)
			if req != nil {
				fb, n, _, err := s.viewC.Render(req.p)
				done := time.Now()
				lg.mu.Lock()
				defer lg.mu.Unlock()
				if err != nil {
					r.fail("render %+v: %v", req.p, err)
					return
				}
				req.latency, req.rtt, req.bytes = ms(done.Sub(due)), ms(done.Sub(sent)), n
				req.hash, req.received = fbHash(fb), true
				if req.traced {
					tr.record("remote.render", k, -1, sent, done)
				}
				return
			}
			rep, n, _, err := s.viewC.FetchFrame(frame)
			done := time.Now()
			var match bool
			if err == nil {
				match = bytes.Equal(rep.AppendBinary(nil), encs[frame%servedK])
			}
			lg.mu.Lock()
			defer lg.mu.Unlock()
			switch {
			case err != nil:
				r.fail("get frame %d: %v", frame, err)
			case !match:
				r.fail("get frame %d does not match the published frame", frame)
			default:
				h := 0
				if traced {
					h = 1
					tr.record("remote.get", k, -1, sent, done)
				}
				lg.getLat[h] = append(lg.getLat[h], ms(done.Sub(due)))
				lg.getBytes = append(lg.getBytes, float64(n))
			}
		}(k, ev.due, sent, req)
	}
	reqWG.Wait()
	pubWG.Wait()
	// Let the last push land before closing the subscription.
	for wait := time.Now().Add(2 * time.Second); time.Now().Before(wait); time.Sleep(5 * time.Millisecond) {
		lg.mu.Lock()
		caught := lg.lastPushed >= published-1
		lg.mu.Unlock()
		if caught {
			break
		}
	}
	stats := s.svc.Stats()
	s.sub.Close()
	subWG.Wait()
	peak := heap.peakMB()
	r.attempted += len(pubDue) + len(lg.lag)

	if n := len(lg.inflight); n >= 6 && mean(lg.inflight[2*n/3:]) > mean(lg.inflight[:n/3])+1 {
		r.fail("in-flight backlog grew across the run: %.2f then %.2f", mean(lg.inflight[:n/3]), mean(lg.inflight[2*n/3:]))
	}

	// Sampled renders must equal a local render of the same frame and
	// view, bit for bit. In the traced half they also time the local
	// render; the wire time is the round trip minus it.
	var stillMs, wireMs []float64
	checked := [2]int{}
	for _, req := range lg.renders {
		h := 0
		if req.traced {
			h = 1
		}
		if !req.received || req.repeat || checked[h] >= stillChecks {
			continue
		}
		checked[h]++
		r.attempted++
		rep := reps[req.p.Frame%servedK]
		tf, err := core.DefaultTF(rep)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		fb, _, _, err := volren.RenderStill(rep, tf, req.p.Width, req.p.Height, req.p.ViewDir)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		if fbHash(fb) != req.hash {
			r.fail("render of frame %d differs from the local render", req.p.Frame)
		}
		if req.traced {
			stillMs = append(stillMs, ms(t1.Sub(t0)))
			wireMs = append(wireMs, req.rtt-ms(t1.Sub(t0)))
		}
	}

	var renderLat, renderBytes []float64
	for _, req := range lg.renders {
		if req.received && !req.traced {
			renderLat = append(renderLat, req.latency)
		}
		if req.received {
			renderBytes = append(renderBytes, float64(req.bytes))
		}
	}

	if !args.trace {
		r.metrics["setup_s"] = median(setups)
		r.metrics["frames_per_s"] = ratePerSecond(lg.decoded)
		r.metrics["frame_lag_p50_ms"] = median(lg.lag)
		r.metrics["insitu_lag_p50_ms"] = median(lg.lag)
		r.metrics["peak_heap_mb"] = peak
		r.metrics["get_p50_ms"] = median(lg.getLat[0])
		r.metrics["render_p50_ms"] = median(renderLat)
		printTail("get", lg.getLat[0])
		printTail("render", renderLat)
		return r, nil
	}

	r.metrics["remote.publish_ms"] = median(lg.pubTraced)
	r.metrics["hybrid.decode_ms"] = median(lg.decodeMs)
	r.metrics["remote.get_bytes"] = median(lg.getBytes)
	r.metrics["remote.render_bytes"] = median(renderBytes)
	if n := stats.Renders + stats.RenderHits; n > 0 {
		r.metrics["remote.render_hit_ratio"] = float64(stats.RenderHits) / float64(n)
	}
	r.metrics["remote.push_ratio"] = float64(stats.NotifyFrames) / float64(published)
	r.metrics["volren.still_ms"] = median(stillMs)
	r.metrics["remote.render_wire_ms"] = median(wireMs)
	r.metrics["gen.late_ms"] = quantile(lg.late, 0.9)
	r.metrics["trace.overhead_ms"] = median(lg.getLat[1]) - median(lg.getLat[0])
	fmt.Printf("# insitu_serve: publish %.2f ms, decode %.2f ms, uncached render rtt−still %.2f ms, still %.2f ms, hit ratio %.2f, push ratio %.2f\n",
		r.metrics["remote.publish_ms"], r.metrics["hybrid.decode_ms"], r.metrics["remote.render_wire_ms"],
		r.metrics["volren.still_ms"], r.metrics["remote.render_hit_ratio"], r.metrics["remote.push_ratio"])
	return r, tr.write(filepath.Join(args.traceDir, fmt.Sprintf("insitu_serve-seed%d.jsonl", args.seed)))
}

// firstImage publishes frame 0 and waits until the subscriber has its
// push and the viewer has fetched and rendered it.
func (s *served) firstImage(r *run, rep *hybrid.Representation, enc []byte, in *inputs) error {
	if err := s.ring.Publish(0, rep); err != nil {
		return err
	}
	select {
	case u, ok := <-s.sub.Frames:
		if !ok {
			return fmt.Errorf("insitu_serve: subscription closed before the first push")
		}
		r.attempted++
		if !bytes.Equal(u.Payload, enc) {
			r.fail("first push does not match the published encoding")
		}
	case <-time.After(10 * time.Second):
		return fmt.Errorf("insitu_serve: no push of the first frame")
	}
	if _, _, _, err := s.viewC.FetchFrame(0); err != nil {
		return err
	}
	_, _, _, err := s.viewC.Render(remote.RenderParams{
		Frame: 0, Width: imageSize, Height: imageSize, ViewDir: orbitView(in.orbit0 + math.Pi),
	})
	r.attempted += 2
	return err
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// sleepUntil sleeps until t (returns at once when t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
