// Command perfbench is svmsim's benchmark: three named workloads measured
// end to end (tracing off) or per layer (tracing on), with every output
// checked for correctness. It is run from the root of an svmsim checkout,
// normally through run.py, which builds it first:
//
//	python3 perfbench/run.py --workload sweep-interrupt --seed 1 --seconds 42 --trace 0
//
// Workloads:
//
//	sweep-interrupt   Figure 10's interrupt-cost sweep, HLRC and AURC, cold
//	sweep-clustering  Figure 14's procs/node sweep, HLRC, cold
//	serve-fleet       a coordinator plus one worker on loopback HTTP, driven
//	                  by a seeded closed-loop trace of cell submissions
//
// Every measured pass runs in a fresh child process, the way a user runs a
// sweep or starts a daemon: an exp.Suite keeps every cell's memory images
// in its memo, and a second pass in the same process would reuse (and
// zero) that freed heap, multiplying the resident set.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it are the same
// numbers for people, plus the host the run was measured on. See README.md
// for what each metric means and which layer metric should move which
// end-to-end metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    scale
	// root is the svmsim checkout; workDir receives span files and the
	// fleet's journals and caches.
	root    string
	workDir string
	out     io.Writer
	// spawn runs one child role and returns its report; nil re-executes
	// this binary.
	spawn func(o options, role string) (*report, error)
}

// Child roles: one measured pass (untraced or traced), or the layer probes.
const (
	rolePass   = "pass"
	roleTraced = "traced"
	roleProbes = "probes"
)

// report is what one child process measured, printed as its last line.
type report struct {
	Setups    []float64         `json:"setups"`
	Wall      float64           `json:"wall"`
	CellMs    []float64         `json:"cell_ms"`
	Answered  int               `json:"answered"`
	PeakRSSMB float64           `json:"peak_rss_mb"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes"`
	Spans     []spanRecord      `json:"spans"`
}

// bench is the state of one child: the counters behind attempted/failed
// and what it measured.
type bench struct {
	opts  options
	nproc int
	tr    *tracer
	rep   *report
}

// check counts one attempted operation, failing it when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.rep.Attempted++
	if !ok {
		b.rep.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
}

// fail records a failed operation that was attempted.
func (b *bench) fail(format string, args ...any) { b.check(false, format, args...) }

func (b *bench) set(name, unit string, v float64) { b.rep.Metrics[name] = metric{Value: v, Unit: unit} }

func (b *bench) note(format string, args ...any) {
	b.rep.Notes = append(b.rep.Notes, fmt.Sprintf(format, args...))
}

// workload is one named workload: its measured pass and its probes.
type workload struct {
	pass   func(b *bench) error
	probes func(b *bench) error
}

var workloads = map[string]workload{
	"sweep-interrupt":  {func(b *bench) error { return b.sweepPass(interruptSweep) }, func(b *bench) error { return b.sweepProbes(interruptSweep) }},
	"sweep-clustering": {func(b *bench) error { return b.sweepPass(clusteringSweep) }, func(b *bench) error { return b.sweepProbes(clusteringSweep) }},
	"serve-fleet":      {(*bench).servePass, (*bench).serveProbes},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		o         options
		traceFlag int
		size      string
		dumpTrace bool
		child     string
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 42, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics; 0 = end-to-end metrics")
	flag.StringVar(&size, "size", "full", "full, or tiny for a seconds-long smoke run")
	flag.BoolVar(&dumpTrace, "dump-trace", false, "print serve-fleet's request trace for -seed as loadgen -trace JSONL and exit")
	flag.StringVar(&child, "child", "", "internal: run one pass or the probes and print its report")
	flag.Parse()
	switch traceFlag {
	case 0, 1:
		o.traced = traceFlag == 1
	default:
		fatalf("-trace must be 0 or 1")
	}
	switch size {
	case "full":
		o.scale = fullScale
	case "tiny":
		o.scale = tinyScale
	default:
		fatalf("-size must be full or tiny")
	}
	root, err := findRoot()
	if err != nil {
		fatalf("%v", err)
	}
	o.root = root
	o.workDir = filepath.Join(root, ".bench_build", "perfbench")
	o.out = os.Stdout

	switch {
	case dumpTrace:
		if err := dumpServeTrace(os.Stdout, o.seed, o.scale); err != nil {
			fatalf("%v", err)
		}
	case child != "":
		rep, err := runChild(o, child)
		if err != nil {
			fatalf("%v", err)
		}
		printJSON(rep)
	case o.workload == "all":
		os.Exit(runAll(o))
	default:
		res, err := runWorkload(o)
		if err != nil {
			fatalf("%v", err)
		}
		printJSON(res)
	}
}

func printJSON(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// findRoot returns the svmsim checkout enclosing the working directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module svmsim\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no svmsim checkout (go.mod with module svmsim) at or above the working directory")
		}
		dir = parent
	}
}

// runChild runs one role of one workload in this process.
func runChild(o options, role string) (*report, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	b := &bench{opts: o, nproc: runtime.NumCPU(), rep: &report{Metrics: map[string]metric{}}}
	runtime.GOMAXPROCS(b.nproc)
	var err error
	switch role {
	case rolePass:
		err = w.pass(b)
	case roleTraced:
		b.tr = newTracer()
		err = w.pass(b)
	case roleProbes:
		b.tr = newTracer()
		err = w.probes(b)
	default:
		err = fmt.Errorf("unknown child role %q", role)
	}
	if err != nil {
		return nil, err
	}
	b.rep.PeakRSSMB = peakRSSMB()
	b.rep.Spans = b.tr.records()
	return b.rep, nil
}

// spawnSelf runs one role in a fresh child process of this binary.
func spawnSelf(o options, role string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "-child", role, "-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-size", o.scale.name)
	cmd.Dir = o.root
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s child: %w", o.workload, role, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s %s child: bad report: %w", o.workload, role, err)
	}
	return &rep, nil
}

// runWorkload runs one workload — its passes, or for a traced run an
// untraced pass, a traced pass and the probes — each in its own child, and
// returns the result line. Human-readable lines go to o.out.
func runWorkload(o options) (result, error) {
	if _, ok := workloads[o.workload]; !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s, or all)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return result{}, errors.New("-seconds must be positive")
	}
	spawn := o.spawn
	if spawn == nil {
		spawn = spawnSelf
	}
	h := describeHost(o.root, runtime.NumCPU())
	fmt.Fprintf(o.out, "perfbench: workload=%s seed=%d seconds=%g trace=%v size=%s\n",
		o.workload, o.seed, o.seconds, o.traced, o.scale.name)
	fmt.Fprintf(o.out, "perfbench: host %s\n", h)

	res := result{Metrics: map[string]metric{}}
	var notes []string
	run := func(role string) (*report, error) {
		rep, err := spawn(o, role)
		if err != nil {
			return nil, err
		}
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		for _, n := range rep.Notes {
			if !slices.Contains(notes, n) {
				notes = append(notes, n)
			}
		}
		return rep, nil
	}

	if o.traced {
		plain, err := run(rolePass)
		if err != nil {
			return result{}, err
		}
		traced, err := run(roleTraced)
		if err != nil {
			return result{}, err
		}
		probes, err := run(roleProbes)
		if err != nil {
			return result{}, err
		}
		for _, rep := range []*report{traced, probes} {
			for k, v := range rep.Metrics {
				res.Metrics[k] = v
			}
		}
		res.Metrics["trace.overhead_frac"] = metric{traced.Wall/plain.Wall - 1, "ratio"}
		notes = append(notes, fmt.Sprintf("tracing overhead: traced pass %.3f s, untraced pass %.3f s", traced.Wall, plain.Wall))
		path, n, err := writeSpans(o.workDir, o.workload, o.seed, h, traced.Spans, probes.Spans)
		if err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		notes = append(notes, fmt.Sprintf("spans %d written to %s", n, path))
	} else {
		// Passes continue while one more, at the mean pass length so far,
		// still ends within the run's seconds; there is always at least one.
		var setups, walls, rates, cellMs, rss []float64
		start := time.Now()
		passes := 0
		for ; passes == 0 || since(start)*float64(passes+1)/float64(passes) <= o.seconds; passes++ {
			rep, err := run(rolePass)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, rep.Setups...)
			walls = append(walls, rep.Wall)
			rates = append(rates, float64(rep.Answered)/rep.Wall)
			cellMs = append(cellMs, rep.CellMs...)
			rss = append(rss, rep.PeakRSSMB)
		}
		set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		set("setup_s", "s", median(setups))
		set("sweep_s", "s", median(walls))
		set("cell_p50_ms", "ms", median(cellMs))
		set("cell_p90_ms", "ms", quantile(cellMs, 0.9))
		set("cells_per_s", "1/s", median(rates))
		set("peak_rss_mb", "MB", median(rss))
		notes = append(notes, fmt.Sprintf("passes %d (one child process each), cell samples %d, set-ups %d",
			passes, len(cellMs), len(setups)))
	}
	if res.Attempted == 0 {
		return result{}, errors.New("workload attempted nothing")
	}
	res.Correct = res.Failed == 0
	notes = append(notes, fmt.Sprintf("failed_frac %g ratio (%d of %d operations)",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted))

	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(o.out, "  %-34s %18.6f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Fprintf(o.out, "  %s\n", n)
	}
	return res, nil
}

// runAll runs every workload in turn and prints one combined result line
// whose metric names are prefixed with the workload.
func runAll(o options) int {
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames() {
		o.workload = name
		r, err := runWorkload(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	printJSON(all)
	return 0
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
