package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"svmsim/internal/exp"
)

var update = flag.Bool("update", false, "regenerate golden/fig10_aurc.txt and golden/serve_cells.json by simulating in-process")

// benchmarkSpec is the part of BENCHMARK.json the self-test holds the
// program's output to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSelfTest runs every workload at tiny scale, untraced and traced, and
// requires exactly the metrics BENCHMARK.json names, each with its unit,
// printed for people and in the result line, with every check passing.
func TestSelfTest(t *testing.T) {
	spec := loadBenchmarkSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			res, err := runWorkload(options{
				workload: w.Name, seed: 7, seconds: 1, traced: traced, scale: tinyScale,
				root: root, workDir: t.TempDir(), out: &out, spawn: runChild,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
				if !strings.Contains(out.String(), " "+m.Name+" ") {
					t.Errorf("%s traced=%v: %s not printed", w.Name, traced, m.Name)
				}
			}
			if !strings.Contains(out.String(), "go_nontest_lines=") || !strings.Contains(out.String(), "failed_frac 0 ratio") {
				t.Errorf("%s traced=%v: host line or failed_frac missing:\n%s", w.Name, traced, out.String())
			}
		}
	}
}

// TestCommandLine builds the binary and runs one tiny workload through it,
// child processes included, from the checkout root.
func TestCommandLine(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-workload", "sweep-clustering", "-seed", "3", "-seconds", "1", "-trace", "0", "-size", "tiny")
	cmd.Dir = ".."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	if !res.Correct || res.Attempted < 1 || res.Metrics["sweep_s"].Value <= 0 {
		t.Errorf("unexpected result %+v", res)
	}
}

// TestGoldenTablesAreRecorded holds the HLRC golden tables to the Figure 10
// and Figure 14 blocks recorded in EXPERIMENTS.md.
func TestGoldenTablesAreRecorded(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for name, golden := range map[string]string{"fig10_hlrc": goldenFig10HLRC, "fig14_hlrc": goldenFig14HLRC} {
		if len(golden) < 100 || !strings.Contains(string(data), "\n"+golden+"\n") {
			t.Errorf("golden/%s.txt is not a table recorded in EXPERIMENTS.md", name)
		}
	}
}

// TestServeTrace checks the trace generator: seeded, every universe cell
// submitted first once and resubmitted later, and dumped as loadgen-ready
// cell specs.
func TestServeTrace(t *testing.T) {
	universe, err := serveUniverse(fullScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(universe) < 100 {
		t.Fatalf("universe has %d distinct cells, want at least 100", len(universe))
	}
	golden, err := loadServeGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range universe {
		if golden[c.key] == "" {
			t.Errorf("no golden digest for %s", c.key)
		}
	}
	trace := buildServeTrace(3, fullScale, len(universe))
	firstAt := map[int]int{}
	for i, e := range trace {
		if e.first {
			if _, dup := firstAt[e.cell]; dup {
				t.Fatalf("cell %d submitted first twice", e.cell)
			}
			firstAt[e.cell] = i
		} else if at, ok := firstAt[e.cell]; !ok || i <= at {
			t.Fatalf("resubmission of cell %d at %d precedes its first submission", e.cell, i)
		}
	}
	if len(firstAt) != len(universe) || len(trace) < 4*len(universe) {
		t.Errorf("trace of %d requests covers %d of %d cells", len(trace), len(firstAt), len(universe))
	}

	var a, b, c bytes.Buffer
	for seed, buf := range map[int64]*bytes.Buffer{1: &a, 2: &c} {
		if err := dumpServeTrace(buf, seed, fullScale); err != nil {
			t.Fatal(err)
		}
	}
	if err := dumpServeTrace(&b, 1, fullScale); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() || a.String() == c.String() {
		t.Error("the same seed must give the same trace and another seed another trace")
	}
	for _, line := range strings.Split(strings.TrimSpace(a.String()), "\n") {
		var spec exp.CellSpec
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Fatalf("trace line %q is not a cell spec: %v", line, err)
		}
	}
}

// TestUpdateGolden regenerates the golden files that are not copied from
// EXPERIMENTS.md. It runs only with -update.
func TestUpdateGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate golden files")
	}
	presentation := sweepApps(fullScale)
	s := exp.NewSuite(exp.Small)
	var cells []exp.Cell
	for _, app := range presentation {
		for _, spec := range interruptSweep.specs(fullScale, app) {
			c, err := s.ResolveCell(spec)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, c)
		}
	}
	if err := s.Runner().Run(cells); err != nil {
		t.Fatal(err)
	}
	tables, err := interruptSweep.tables(s, fullScale, presentation)
	if err != nil {
		t.Fatal(err)
	}
	if got := tables[0].tbl.String(); got != goldenFig10HLRC {
		t.Fatalf("HLRC Figure 10 differs from EXPERIMENTS.md:\n%s", got)
	}
	if err := os.WriteFile(filepath.Join("golden", "fig10_aurc.txt"), []byte(tables[1].tbl.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	universe, err := serveUniverse(fullScale)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, sc := range universe {
		var spec exp.CellSpec
		if err := json.Unmarshal(sc.spec, &spec); err != nil {
			t.Fatal(err)
		}
		c, err := s.ResolveCell(spec)
		if err != nil {
			t.Fatal(err)
		}
		run, err := s.RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := exp.EncodeCellResult(exp.NewCellResult(c.Key(), run, nil))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(doc)
		digests[c.Key()] = hex.EncodeToString(sum[:])
	}
	data, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("golden", "serve_cells.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQuantile pins the interpolated quantile on a few small samples,
// clamping included.
func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{9, 1, 7, 3, 5}, 0.5, 5},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{9, 1, 7, 3, 5}, 0.9, 9},
		{[]float64{9, 1, 7, 3, 5}, 0.25, 2},
		{[]float64{9, 1, 7, 3, 5, 11, 13, 15, 17, 19}, 0.9, 18.8},
		{[]float64{4}, 0.9, 4},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}
