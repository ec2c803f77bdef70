// Command perfbench is the repository's benchmark: it runs one workload
// of the paper's pipelines through the public APIs of internal/core,
// internal/remote and the domain packages, checks the outputs, and
// prints one JSON result line.
//
//	perfbench --workload live_frame --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run. NOTES.md
// explains the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees. Every workload
// reports all of them; NOTES.md gives each one's meaning per workload.
// The p90 tails are printed as comments only: they did not repeat
// within a tenth between runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "1/s"},
	{"frame_lag_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"get_p50_ms", "ms"},
	{"render_p50_ms", "ms"},
	{"insitu_lag_p50_ms", "ms"},
}

// perLayer lists the metrics of the traced run. A layer that a
// workload does not call reports 0.
var perLayer = []metricDef{
	{"beam.period_ms", "ms"},
	{"beam.snapshot_ms", "ms"},
	{"beam.alloc_mb", "MB"},
	{"pario.read_ms", "ms"},
	{"pario.alloc_mb", "MB"},
	{"octree.partition_ms", "ms"},
	{"octree.alloc_mb", "MB"},
	{"hybrid.extract_ms", "ms"},
	{"hybrid.alloc_mb", "MB"},
	{"hybrid.points", "count"},
	{"hybrid.decode_ms", "ms"},
	{"render.pointpass_ms", "ms"},
	{"render.alloc_mb", "MB"},
	{"render.fragments", "count"},
	{"volren.raycast_ms", "ms"},
	{"volren.alloc_mb", "MB"},
	{"volren.samples", "count"},
	{"volren.still_ms", "ms"},
	{"remote.publish_ms", "ms"},
	{"remote.get_bytes", "bytes"},
	{"remote.render_bytes", "bytes"},
	{"remote.render_hit_ratio", "ratio"},
	{"remote.push_ratio", "ratio"},
	{"remote.render_wire_ms", "ms"},
	{"pipeline.overlap_ms", "ms"},
	{"emsim.solve_ms", "ms"},
	{"emsim.alloc_mb", "MB"},
	{"seeding.trace_e_ms", "ms"},
	{"seeding.trace_b_ms", "ms"},
	{"seeding.alloc_mb", "MB"},
	{"seeding.lines", "count"},
	{"seeding.line_points", "count"},
	{"sos.render_ms", "ms"},
	{"sos.alloc_mb", "MB"},
	{"sos.triangles", "count"},
	{"gen.late_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// run is what one workload reports: ops attempted and failed, the
// output-check verdict, and its metric values by name.
type run struct {
	mu                sync.Mutex // guards failed and checkErrs
	attempted, failed int
	checkErrs         []string
	metrics           map[string]float64
}

func newRun() *run { return &run{metrics: map[string]float64{}} }

// fail records a failed op and its reason; any failure fails the
// run's output check.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	msg := fmt.Sprintf(format, args...)
	if len(r.checkErrs) < 20 {
		r.checkErrs = append(r.checkErrs, msg)
	}
}

type params struct {
	seed     int64
	seconds  float64
	trace    bool
	dataDir  string // scratch space for generated inputs, removed at exit
	traceDir string // where traced runs write their spans
}

var workloads = map[string]func(params) (*run, error){
	"live_frame":    liveFrame,
	"replay_frames": replayFrames,
	"insitu_serve":  insituServe,
	"field_solve":   fieldSolve,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	root := flag.String("root", ".", "repository root (inputs and traces go under its .bench_build)")
	commit := flag.String("commit", "unknown", "version-control commit of the code under test, where known")
	flag.Parse()

	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	traceDir := filepath.Join(*root, ".bench_build", "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Printf("# machine nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit, sourceID(*root),
		*workload, *seed, *seconds, *trace)

	r, err := wl(params{seed: *seed, seconds: *seconds, trace: *trace == 1, dataDir: dir, traceDir: traceDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && *trace == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", *workload, d.name)
			return 1
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, e := range r.checkErrs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.checkErrs) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(r.checkErrs) > 0 || r.attempted < 1 {
		return 1
	}
	return 0
}

// sourceID identifies the code under test: a hash of the repository's
// Go sources outside the benchmark, so a result can be matched to the
// tree it measured even where no version-control metadata exists.
func sourceID(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel)
		io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
