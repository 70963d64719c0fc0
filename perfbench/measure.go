package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"svmsim/internal/exp"
)

// scale sizes every workload. fullScale is the benchmark; tinyScale is the
// self-test's seconds-long run of the same code paths (one application, two
// sweep points, a handful of requests).
type scale struct {
	name string
	// sweepApps restricts the sweeps' applications (nil = all ten, which
	// also switches the HLRC tables to exp's own Figure10/Figure14).
	sweepApps  []string
	intrPoints []uint64
	ppnPoints  []int
	// serveApps are the cheap applications serve-fleet draws cells from;
	// servePoints caps the points per communication parameter (0 = all).
	serveApps   []string
	servePoints int
	resubMin    int
	resubMax    int
	// probeOps sizes the per-layer microprobes; probeReps repeats each.
	probeOps  int
	probeReps int
	// setupReps is how many extra set-ups a pass measures before its own.
	setupReps int
}

var fullScale = scale{
	name:       "full",
	intrPoints: exp.InterruptPoints,
	ppnPoints:  exp.ClusteringPoints,
	serveApps:  []string{"Raytrace", "Water-nsq", "Volrend", "LU", "FFT"},
	resubMin:   3,
	resubMax:   5,
	probeOps:   200_000,
	probeReps:  5,
	setupReps:  15,
}

var tinyScale = scale{
	name:        "tiny",
	sweepApps:   []string{"Raytrace"},
	intrPoints:  []uint64{0, 10000},
	ppnPoints:   []int{2, 8},
	serveApps:   []string{"Raytrace"},
	servePoints: 1,
	resubMin:    1,
	resubMax:    2,
	probeOps:    2_000,
	probeReps:   1,
	setupReps:   2,
}

// quantile returns the q-quantile of xs at rank q(n+1) among the sorted
// samples, interpolated linearly and clamped to the extremes (Hyndman and
// Fan's type 6, which Python's statistics.quantiles uses by default). xs
// need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := q*float64(len(s)+1) - 1
	if r <= 0 {
		return s[0]
	}
	i := int(r)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (r-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSnap is the Go runtime's cumulative allocation and GC counters at
// one instant; the difference of two snapshots covers the work between.
type runtimeSnap struct {
	allocBytes, allocs uint64
	gcCycles           uint64
	gcCPU, totalCPU    float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// report sets the machine.* and gc.* per-layer metrics for the work between
// two snapshots spread over cells fresh simulations.
func (b *bench) reportRuntime(before, after runtimeSnap, cells int) {
	if cells < 1 {
		cells = 1
	}
	b.set("machine.alloc_mb_per_cell", "MB", float64(after.allocBytes-before.allocBytes)/(1<<20)/float64(cells))
	b.set("machine.allocs_per_cell", "count", float64(after.allocs-before.allocs)/float64(cells))
	b.set("gc.cycles", "count", float64(after.gcCycles-before.gcCycles))
	frac := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		frac = (after.gcCPU - before.gcCPU) / cpu
	}
	b.set("gc.cpu_frac", "ratio", frac)
}

// host describes the machine a result was measured on, so results from
// different hardware are never compared as if they were the same.
type host struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go_version"`
	GoLines    int    `json:"go_nontest_lines"`
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s go_nontest_lines=%d",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.GoLines)
}

func describeHost(root string, nproc int) host {
	return host{
		CPU:        cpuModel(),
		NProc:      nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GoLines:    goLines(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// goLines counts the lines of svmsim's non-test Go files: every .go file
// outside hidden directories and the benchmark's own directory whose name
// does not end in _test.go.
func goLines(root string) int {
	bench := filepath.Join(root, "perfbench")
	n := 0
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || path == bench) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err == nil {
			n += strings.Count(string(data), "\n")
		}
		return nil
	})
	return n
}

// spanRecord is one timed call into a layer, recorded by the benchmark's
// own code: its name, its parent span (0 = none), the workload, cell or
// request it served, and its wall-clock interval.
type spanRecord struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Ref     string `json:"ref"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the process ends. A nil *tracer
// records nothing, so untraced passes pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{} }

// record adds a finished span and returns its ID (0 when tracing is off).
func (t *tracer) record(name string, parent int, ref string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRecord{Name: name, ID: id, Parent: parent, Ref: ref,
		StartNs: start.UnixNano(), EndNs: end.UnixNano()})
	return id
}

// open starts a span whose end is filled in by close; it returns the ID
// children use as their parent.
func (t *tracer) open(name string, parent int, ref string) int {
	now := time.Now()
	return t.record(name, parent, ref, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

func (t *tracer) records() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRecord(nil), t.spans...)
}

// writeSpans saves the spans of each child process as one Chrome
// trace-event file (chrome://tracing and Perfetto open it): one complete
// event per span, the child as the process, parent and reference in args.
// It returns the path and the number of spans written.
func writeSpans(dir, workload string, seed int64, h host, children ...[]spanRecord) (string, int, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var t0 int64
	for _, spans := range children {
		for _, s := range spans {
			if t0 == 0 || s.StartNs < t0 {
				t0 = s.StartNs
			}
		}
	}
	var events []event
	for pid, spans := range children {
		for _, s := range spans {
			events = append(events, event{
				Name: s.Name, Ph: "X", Pid: pid + 1, Tid: 1,
				Ts:   float64(s.StartNs-t0) / 1e3,
				Dur:  float64(s.EndNs-s.StartNs) / 1e3,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "ref": s.Ref},
			})
		}
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": workload, "seed": seed, "host": h},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	return path, len(events), os.WriteFile(path, data, 0o644)
}
