// Command loadgen drives a running svmsimd daemon or fleet coordinator with
// a replayable stream of cell requests and reports client-observed latency
// (p50/p90/p99 of submit→result) and throughput, one summary line per
// offered rate — enough to plot a saturation curve against the server's own
// /metrics view.
//
// The request stream is a trace: one schema-v1 cell spec per line (JSONL).
// Without -trace, loadgen synthesizes the trace from a parameter sweep the
// same way cmd/sweep would submit it; -dump-trace prints that synthetic
// trace so it can be captured, edited and replayed byte-for-byte later.
//
// Usage:
//
//	loadgen -target http://host:7117 -param interrupt -apps FFT
//	loadgen -target http://host:7117 -trace cells.jsonl -rate 5 -n 100
//	loadgen -target http://host:7117 -rates 1,2,5,10,20 -n 50
//	loadgen -param interrupt -dump-trace > cells.jsonl
//
// Offered load is open-loop per rate point (a pacer fires submissions on a
// fixed interval), bounded by -concurrency in-flight requests; when the
// server saturates, achieved rps falls below the offered rate and p99
// climbs — exactly the knee the fleet's capacity planning needs. 429
// responses are absorbed by the shared retrying client (Retry-After
// honored) and surfaced in the "throttled" column rather than as errors.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"svmsim/internal/exp"
	"svmsim/internal/fleet"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		target      = flag.String("target", "http://127.0.0.1:7117", "base URL of the svmsimd daemon or fleet coordinator")
		param       = flag.String("param", "interrupt", "parameter whose sweep cells synthesize the trace: overhead, occupancy, iobw, interrupt, pagesize, clustering")
		appsFlag    = flag.String("apps", "", "comma-separated workload subset for the synthetic trace (default: all)")
		mode        = flag.String("mode", "hlrc", "protocol for the synthetic trace: hlrc or aurc")
		traceFile   = flag.String("trace", "", "replay cell specs from this JSONL file instead of synthesizing them")
		dumpTrace   = flag.Bool("dump-trace", false, "print the synthetic trace as JSONL and exit (no requests sent)")
		n           = flag.Int("n", 0, "requests per rate point (0 = one pass over the trace; larger values cycle)")
		rate        = flag.Float64("rate", 0, "offered request rate in req/s (0 = closed loop, as fast as -concurrency allows)")
		ratesFlag   = flag.String("rates", "", "comma-separated offered rates for a saturation curve (overrides -rate)")
		concurrency = flag.Int("concurrency", 16, "maximum in-flight requests")
	)
	flag.Parse()

	trace, err := buildTrace(*traceFile, *param, *appsFlag, *mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if len(trace) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: empty trace")
		return 1
	}
	if *dumpTrace {
		w := bufio.NewWriter(os.Stdout)
		for _, line := range trace {
			w.Write(line)
			w.WriteByte('\n')
		}
		w.Flush()
		return 0
	}

	rates, err := parseRates(*ratesFlag, *rate)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	total := *n
	if total <= 0 {
		total = len(trace)
	}

	base := strings.TrimRight(*target, "/")
	fmt.Printf("%10s %12s %10s %10s %10s %10s %8s\n",
		"rate", "achieved", "p50", "p90", "p99", "throttled", "errors")
	for _, r := range rates {
		rep := replay(base, trace, total, r, *concurrency)
		fmt.Printf("%10s %12.2f %10s %10s %10s %10d %8d\n",
			rateLabel(r), rep.achieved, fmtDur(rep.p50), fmtDur(rep.p90), fmtDur(rep.p99), rep.throttled, rep.errors)
		for _, e := range rep.sampleErrs {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", e)
		}
	}
	return 0
}

// buildTrace loads the JSONL trace file, or synthesizes one: every cell of
// the named parameter sweep, one spec per (workload, point) — the same cells
// the daemon would simulate for `sweep -param ... -remote`.
func buildTrace(traceFile, param, appsFlag, mode string) ([][]byte, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var out [][]byte
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			var spec exp.CellSpec
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				return nil, fmt.Errorf("loadgen: trace line %d: %w", len(out)+1, err)
			}
			out = append(out, []byte(line))
		}
		return out, sc.Err()
	}

	var names []string
	for _, n := range strings.Split(appsFlag, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	wls, err := exp.SelectWorkloads(names)
	if err != nil {
		return nil, err
	}
	i, ok := exp.AxisIndex(param)
	if !ok {
		return nil, fmt.Errorf("loadgen: unknown -param %q", param)
	}
	ax := &exp.Axes[i]
	var out [][]byte
	for _, w := range wls {
		for _, p := range ax.Points {
			spec := exp.CellSpec{Workload: w.Name, Mode: mode}
			ax.Spec(&spec, p)
			data, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			out = append(out, data)
		}
	}
	return out, nil
}

// parseRates resolves the offered-rate list; a single zero means closed
// loop.
func parseRates(ratesFlag string, rate float64) ([]float64, error) {
	if ratesFlag == "" {
		return []float64{rate}, nil
	}
	var out []float64
	for _, f := range strings.Split(ratesFlag, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("loadgen: bad rate %q in -rates", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadgen: -rates parsed to nothing")
	}
	return out, nil
}

// report is one rate point's summary.
type report struct {
	achieved      float64
	p50, p90, p99 time.Duration
	throttled     uint64
	errors        int
	sampleErrs    []error
}

// replay offers total requests from the trace (cycling) at the given rate,
// with at most concurrency in flight, and aggregates latencies.
func replay(base string, trace [][]byte, total int, rate float64, concurrency int) report {
	if concurrency < 1 {
		concurrency = 1
	}
	var throttled atomic.Uint64
	client := &fleet.Client{
		OnRetry: func(status int, _ time.Duration) {
			if status == http.StatusTooManyRequests {
				throttled.Add(1)
			}
		},
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		errs      []error
	)
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup

	var tick *time.Ticker
	if rate > 0 {
		tick = time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer tick.Stop()
	}

	start := time.Now()
	for i := 0; i < total; i++ {
		if tick != nil {
			<-tick.C
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(body []byte) {
			defer func() { <-sem; wg.Done() }()
			t0 := time.Now()
			err := oneRequest(client, base, body)
			d := time.Since(t0)
			mu.Lock()
			if err != nil {
				errs = append(errs, err)
			} else {
				latencies = append(latencies, d)
			}
			mu.Unlock()
		}(trace[i%len(trace)])
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := report{throttled: throttled.Load(), errors: len(errs)}
	if elapsed > 0 {
		rep.achieved = float64(len(latencies)) / elapsed.Seconds()
	}
	if len(errs) > 0 {
		rep.sampleErrs = errs[:min(3, len(errs))]
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		rep.p50 = percentile(latencies, 50)
		rep.p90 = percentile(latencies, 90)
		rep.p99 = percentile(latencies, 99)
	}
	return rep
}

// oneRequest is the full submit→result round trip for one cell spec. A
// deterministic simulation failure (the daemon's 500 with a structured
// envelope) still counts as a served request — the server did its work.
func oneRequest(client *fleet.Client, base string, body []byte) error {
	ctx := context.Background()
	status, data, err := client.Do(ctx, http.MethodPost, base+"/v1/cells", body)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK, http.StatusAccepted:
	default:
		return fmt.Errorf("submit refused: %d %s", status, strings.TrimSpace(string(data)))
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &view); err != nil || view.ID == "" {
		return fmt.Errorf("unparseable submit response %q", strings.TrimSpace(string(data)))
	}
	for {
		status, data, err = client.Do(ctx, http.MethodGet, base+"/v1/jobs/"+view.ID+"/result?wait=1", nil)
		if err != nil {
			return err
		}
		switch status {
		case http.StatusOK, http.StatusInternalServerError:
			return nil
		case http.StatusConflict, http.StatusServiceUnavailable:
			continue // still running
		default:
			return fmt.Errorf("result poll: %d %s", status, strings.TrimSpace(string(data)))
		}
	}
}

// percentile reads the p-th percentile from an ascending latency slice.
func percentile(sorted []time.Duration, p int) time.Duration {
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func rateLabel(r float64) string {
	if r <= 0 {
		return "closed"
	}
	return strconv.FormatFloat(r, 'g', -1, 64)
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(100 * time.Microsecond).String()
}
