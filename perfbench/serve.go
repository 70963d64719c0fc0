package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"svmsim/internal/exp"
	"svmsim/internal/fleet"
	"svmsim/internal/server"
)

// goldenServeCells maps each cell key of serve-fleet's universe to the
// sha256 of its canonical result document (exp.EncodeCellResult of the cell
// simulated in-process). The self-test regenerates it with -update.
//
//go:embed golden/serve_cells.json
var goldenServeCellsJSON []byte

// serveCell is one distinct cell serve-fleet can submit.
type serveCell struct {
	spec []byte // the CellSpec as submitted, one JSON line
	key  string
}

// serveUniverse lists the cheap cells serve-fleet draws from: for each of
// scale.serveApps, the uniprocessor baseline, the achievable baseline and
// every other point of the four communication-parameter sweeps.
func serveUniverse(sc scale) ([]serveCell, error) {
	s := exp.NewSuite(exp.Small)
	base := s.Base()
	var out []serveCell
	seen := map[string]bool{}
	add := func(spec exp.CellSpec) error {
		c, err := s.ResolveCell(spec)
		if err != nil {
			return err
		}
		if seen[c.Key()] {
			return nil
		}
		seen[c.Key()] = true
		data, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		out = append(out, serveCell{spec: data, key: c.Key()})
		return nil
	}
	for _, app := range sc.serveApps {
		specs := []exp.CellSpec{{Workload: app, Uniprocessor: true}, {Workload: app}}
		specs = append(specs, pointSpecs(app, sc.servePoints, exp.HostOverheadPoints, base.Net.HostOverheadCycles,
			func(s *exp.CellSpec, v uint64) { s.HostOverheadCycles = &v })...)
		specs = append(specs, pointSpecs(app, sc.servePoints, exp.OccupancyPoints, base.Net.NIOccupancyCycles,
			func(s *exp.CellSpec, v uint64) { s.NIOccupancyCycles = &v })...)
		specs = append(specs, pointSpecs(app, sc.servePoints, exp.IOBandwidthPoints, base.Net.IOBytesPerCycle,
			func(s *exp.CellSpec, v float64) { s.IOBytesPerCycle = &v })...)
		specs = append(specs, pointSpecs(app, sc.servePoints, exp.InterruptPoints, base.IntrHalfCostCycles,
			func(s *exp.CellSpec, v uint64) { s.IntrHalfCostCycles = &v })...)
		for _, spec := range specs {
			if err := add(spec); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// pointSpecs returns one spec per sweep point other than the baseline
// value, at most limit of them (0 = all).
func pointSpecs[T comparable](app string, limit int, points []T, base T, set func(*exp.CellSpec, T)) []exp.CellSpec {
	var out []exp.CellSpec
	for _, v := range points {
		if v == base {
			continue
		}
		if limit > 0 && len(out) == limit {
			break
		}
		spec := exp.CellSpec{Workload: app}
		set(&spec, v)
		out = append(out, spec)
	}
	return out
}

// traceEntry is one request of the trace: a cell of the universe, and
// whether this is its first submission.
type traceEntry struct {
	cell  int
	first bool
}

// buildServeTrace generates the request order from the seed: the universe's
// first submissions in a seeded order, each followed — at least a few
// requests later — by resubmissions scattered over the rest of the trace.
func buildServeTrace(seed int64, sc scale, n int) []traceEntry {
	rng := rand.New(rand.NewSource(seed))
	type timed struct {
		at float64
		e  traceEntry
	}
	const gap = 4 // first submissions between a cell's first submission and its earliest resubmission
	var evs []timed
	for pos, ci := range rng.Perm(n) {
		evs = append(evs, timed{float64(pos), traceEntry{cell: ci, first: true}})
		k := sc.resubMin + rng.Intn(sc.resubMax-sc.resubMin+1)
		for j := 0; j < k; j++ {
			evs = append(evs, timed{float64(pos) + gap + rng.Float64()*float64(n), traceEntry{cell: ci}})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	out := make([]traceEntry, len(evs))
	for i, ev := range evs {
		out[i] = ev.e
	}
	return out
}

// dumpServeTrace writes the trace for seed as JSONL cell specs, the form
// cmd/loadgen -trace replays against a running svmsimd.
func dumpServeTrace(w io.Writer, seed int64, sc scale) error {
	universe, err := serveUniverse(sc)
	if err != nil {
		return err
	}
	for _, e := range buildServeTrace(seed, sc, len(universe)) {
		if _, err := fmt.Fprintf(w, "%s\n", universe[e.cell].spec); err != nil {
			return err
		}
	}
	return nil
}

// fleetRig is a coordinator and one joined worker serving on loopback, both
// journaling, the worker with an empty disk cache.
type fleetRig struct {
	dir       string
	coord     *fleet.Coordinator
	worker    *server.Server
	coordURL  string
	workerURL string
	https     []*http.Server
	serving   sync.WaitGroup
	member    *fleet.Membership
	joinMs    float64
}

// startFleet brings the fleet up and returns once the worker is visible in
// the coordinator's GET /v1/workers.
func startFleet(workDir string, nproc int) (*fleetRig, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "fleet-")
	if err != nil {
		return nil, err
	}
	r := &fleetRig{dir: dir}
	ok := false
	defer func() {
		if !ok {
			r.stop()
		}
	}()

	cs := exp.NewSuite(exp.Small)
	cs.Parallelism = nproc
	r.coord, err = fleet.New(fleet.Config{
		Suite:             cs,
		Server:            server.Config{Workers: nproc, JournalDir: filepath.Join(dir, "coordinator-journal")},
		HeartbeatInterval: time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	if r.coordURL, err = r.serve(r.coord.Handler()); err != nil {
		return nil, err
	}

	cacheDir := filepath.Join(dir, "worker-cache")
	ws := exp.NewSuite(exp.Small)
	ws.Parallelism = nproc
	ws.CacheDir = cacheDir
	r.worker, err = server.New(server.Config{Suite: ws, Workers: nproc, JournalDir: filepath.Join(dir, "worker-journal")})
	if err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	if r.workerURL, err = r.serve(r.worker.Handler()); err != nil {
		return nil, err
	}

	t0 := time.Now()
	r.member = fleet.Join(&fleet.Client{}, r.coordURL, fleet.WorkerInfo{
		URL:      r.workerURL,
		Capacity: nproc,
		CacheID:  fleet.CacheIdentity("perfbench", cacheDir),
		WarmKeys: func() []string { return exp.WarmKeys(cacheDir, 4096) },
	}, time.Second, nil)
	if err := r.awaitWorker(); err != nil {
		return nil, err
	}
	r.joinMs = since(t0) * 1e3
	ok = true
	return r, nil
}

func (r *fleetRig) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	r.https = append(r.https, srv)
	r.serving.Add(1)
	go func() {
		defer r.serving.Done()
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

func (r *fleetRig) awaitWorker() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(r.coordURL + "/v1/workers")
		if err == nil {
			var doc struct {
				Workers []struct {
					URL   string `json:"url"`
					Alive bool   `json:"alive"`
				} `json:"workers"`
			}
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			for _, w := range doc.Workers {
				if err == nil && w.Alive && w.URL == r.workerURL {
					return nil
				}
			}
		}
		// Set-up takes a few milliseconds: poll finely so the poll period
		// does not quantize it.
		time.Sleep(100 * time.Microsecond)
	}
	return errors.New("worker never became visible to the coordinator")
}

// stop leaves the fleet, drains both servers, waits for their goroutines
// and removes the journals and cache.
func (r *fleetRig) stop() {
	if r.member != nil {
		r.member.Leave()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if r.coord != nil {
		if err := r.coord.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: coordinator drain: %v\n", err)
		}
	}
	if r.worker != nil {
		if err := r.worker.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: worker drain: %v\n", err)
		}
	}
	// Both servers are drained, so nothing is in flight: a connection a
	// client dialed but never used would hold Shutdown for seconds, so
	// close whatever is left after a short grace period.
	for _, s := range r.https {
		grace, cancelGrace := context.WithTimeout(ctx, 100*time.Millisecond)
		if s.Shutdown(grace) != nil {
			s.Close()
		}
		cancelGrace()
	}
	r.serving.Wait()
	os.RemoveAll(r.dir)
}

// scrape reads a server's /metrics into series → value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// promSum adds up every series of the metric name, whatever its labels.
func promSum(m map[string]float64, name string) float64 {
	var t float64
	for series, v := range m {
		if series == name || strings.HasPrefix(series, name+"{") {
			t += v
		}
	}
	return t
}

// request is one finished request of the trace.
type request struct {
	entry    traceEntry
	acceptMs float64 // POST until its response
	totalMs  float64 // POST until the result document
	fresh    bool    // 202: admitted for simulation
	cached   bool    // 200 from the result store
	body     []byte
}

// serveRound is one trace played against one freshly started fleet.
type serveRound struct {
	setupS   float64
	traceS   float64
	joinMs   float64
	requests []request
	coordM   map[string]float64
	workerM  map[string]float64
	before   runtimeSnap
	after    runtimeSnap
}

// playRound starts a fleet, plays the trace with nproc closed-loop
// clients, checks every result against its golden digest, scrapes both
// servers' metrics and tears the fleet down.
func (b *bench) playRound(universe []serveCell, trace []traceEntry, golden map[string]string, ref string) (*serveRound, error) {
	root := b.tr.open("serve-fleet.round", 0, ref)
	defer b.tr.close(root)
	t0 := time.Now()
	sp := b.tr.open("fleet.start", root, ref)
	rig, err := startFleet(b.opts.workDir, b.nproc)
	b.tr.close(sp)
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	rd := &serveRound{setupS: since(t0), joinMs: rig.joinMs, requests: make([]request, len(trace))}

	client := &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: b.nproc, MaxConnsPerHost: b.nproc},
	}
	defer client.CloseIdleConnections()
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var problems []string
	rd.before = snapRuntime()
	t1 := time.Now()
	for c := 0; c < b.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(trace) {
					return
				}
				req, errs := b.submit(client, rig.coordURL, universe[trace[i].cell], golden, root, i)
				req.entry = trace[i]
				rd.requests[i] = req
				if len(errs) > 0 {
					mu.Lock()
					problems = append(problems, strings.Join(errs, "; "))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	rd.traceS = since(t1)
	rd.after = snapRuntime()
	b.rep.Attempted += len(trace)
	for _, p := range problems {
		b.fail("%s", p)
	}
	if rd.coordM, err = scrape(rig.coordURL); err != nil {
		return nil, err
	}
	if rd.workerM, err = scrape(rig.workerURL); err != nil {
		return nil, err
	}
	return rd, nil
}

// submit sends one request — POST /v1/cells, then GET the job's result with
// ?wait=1 — and checks the document against the cell's golden digest. It
// returns the problems found; any problem fails the request. A 429 is
// retried after its Retry-After and still fails the request.
func (b *bench) submit(client *http.Client, base string, cell serveCell, golden map[string]string, parent, idx int) (request, []string) {
	var req request
	var problems []string
	ref := strconv.Itoa(idx)
	t0 := time.Now()
	var view struct {
		ID     string `json:"id"`
		Key    string `json:"key"`
		Cached bool   `json:"cached"`
	}
	for attempt := 0; ; attempt++ {
		sp := b.tr.open("server.POST /v1/cells", parent, ref)
		resp, err := client.Post(base+"/v1/cells", "application/json", bytes.NewReader(cell.spec))
		if err != nil {
			b.tr.close(sp)
			return req, append(problems, fmt.Sprintf("POST %s: %v", cell.key, err))
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		b.tr.close(sp)
		if err != nil {
			return req, append(problems, fmt.Sprintf("POST %s: %v", cell.key, err))
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 5 {
			problems = append(problems, fmt.Sprintf("POST %s: 429, retried", cell.key))
			wait, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(max(wait, 1)) * time.Second)
			continue
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return req, append(problems, fmt.Sprintf("POST %s: %d %s", cell.key, resp.StatusCode, strings.TrimSpace(string(data))))
		}
		if err := json.Unmarshal(data, &view); err != nil {
			return req, append(problems, fmt.Sprintf("POST %s: bad job view: %v", cell.key, err))
		}
		req.fresh = resp.StatusCode == http.StatusAccepted
		req.cached = view.Cached
		break
	}
	req.acceptMs = since(t0) * 1e3
	sp := b.tr.open("fleet.GET result", parent, ref)
	resp, err := client.Get(base + "/v1/jobs/" + view.ID + "/result?wait=1")
	if err != nil {
		b.tr.close(sp)
		return req, append(problems, fmt.Sprintf("GET result of %s: %v", cell.key, err))
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	b.tr.close(sp)
	req.totalMs = since(t0) * 1e3
	switch {
	case err != nil:
		problems = append(problems, fmt.Sprintf("GET result of %s: %v", cell.key, err))
	case resp.StatusCode != http.StatusOK:
		problems = append(problems, fmt.Sprintf("GET result of %s: %d %s", cell.key, resp.StatusCode, strings.TrimSpace(string(body))))
	case view.Key != cell.key:
		problems = append(problems, fmt.Sprintf("job for %s reports key %s", cell.key, view.Key))
	default:
		sum := sha256.Sum256(body)
		if got, want := hex.EncodeToString(sum[:]), golden[cell.key]; got != want {
			problems = append(problems, fmt.Sprintf("result of %s has digest %s, recorded %q", cell.key, got, want))
		}
		req.body = body
	}
	return req, problems
}

func loadServeGolden() (map[string]string, error) {
	golden := map[string]string{}
	if err := json.Unmarshal(goldenServeCellsJSON, &golden); err != nil {
		return nil, fmt.Errorf("golden/serve_cells.json: %w", err)
	}
	return golden, nil
}

// firstLatencies returns POST→result of every first submission, in ms.
func (rd *serveRound) firstLatencies() []float64 {
	var ms []float64
	for _, r := range rd.requests {
		if r.entry.first && r.body != nil {
			ms = append(ms, r.totalMs)
		}
	}
	return ms
}

// servePass is one child's share of serve-fleet: extra fleet start-ups for
// a steady set-up time, then one round of the trace against a fresh fleet.
// A traced round also reports the per-layer metrics of its servers.
func (b *bench) servePass() error {
	sc := b.opts.scale
	universe, err := serveUniverse(sc)
	if err != nil {
		return err
	}
	golden, err := loadServeGolden()
	if err != nil {
		return err
	}
	trace := buildServeTrace(b.opts.seed, sc, len(universe))
	for i := 0; i < sc.setupReps; i++ {
		t0 := time.Now()
		rig, err := startFleet(b.opts.workDir, b.nproc)
		if err != nil {
			return err
		}
		b.rep.Setups = append(b.rep.Setups, since(t0))
		rig.stop()
	}
	rd, err := b.playRound(universe, trace, golden, "round")
	if err != nil {
		return err
	}
	b.rep.Setups = append(b.rep.Setups, rd.setupS)
	b.rep.Wall = rd.traceS
	b.rep.Answered = len(trace)
	b.rep.CellMs = rd.firstLatencies()
	b.note("trace of %d requests over %d distinct cells", len(trace), len(universe))
	if b.tr == nil {
		return nil
	}

	b.reportRuntime(rd.before, rd.after, len(b.rep.CellMs))
	b.reportServing(rd)
	b.set("exp.parallel_speedup", "ratio", promSum(rd.workerM, "svmsimd_cell_latency_seconds_sum")/rd.traceS)
	var keys []string
	var docs [][]byte
	for _, r := range rd.requests {
		if r.entry.first && r.body != nil {
			keys = append(keys, universe[r.entry.cell].key)
			docs = append(docs, r.body)
		}
	}
	b.reportSimCounts(b.reportCodec(keys, docs))
	return nil
}

// serveProbes times node setup on the trace's cluster configurations and
// runs the layer probes.
func (b *bench) serveProbes() error {
	universe, err := serveUniverse(b.opts.scale)
	if err != nil {
		return err
	}
	s := exp.NewSuite(exp.Small)
	var cells []exp.Cell
	for _, u := range universe {
		var spec exp.CellSpec
		if err := json.Unmarshal(u.spec, &spec); err != nil {
			return err
		}
		c, err := s.ResolveCell(spec)
		if err != nil {
			return err
		}
		cells = append(cells, c)
	}
	if err := b.reportNodeSetup(cells); err != nil {
		return err
	}
	return b.probeLayers()
}

// reportServing sets the server.* and fleet.* metrics of one round.
func (b *bench) reportServing(rd *serveRound) {
	var accept, hit []float64
	for _, r := range rd.requests {
		switch {
		case r.entry.first && r.fresh:
			accept = append(accept, r.acceptMs)
		case !r.entry.first && r.cached && r.body != nil:
			hit = append(hit, r.totalMs)
		}
	}
	simMs := 0.0
	if n := promSum(rd.workerM, "svmsimd_cell_latency_seconds_count"); n > 0 {
		simMs = promSum(rd.workerM, "svmsimd_cell_latency_seconds_sum") / n * 1e3
	}
	b.set("server.accept_ms", "ms", median(accept))
	b.set("server.hit_ms", "ms", median(hit))
	b.set("server.sim_ms", "ms", simMs)

	submissions := promSum(rd.coordM, "svmsimd_jobs_accepted_total") + promSum(rd.coordM, "svmsimd_jobs_deduped_total")
	storeHits := rd.coordM[`svmsimd_cache_hits_total{layer="store"}`]
	ratio := 0.0
	if submissions > 0 {
		ratio = storeHits / submissions
	}
	b.set("server.store_hit_ratio", "ratio", ratio)
	b.note("store hits %.0f of %.0f submissions", storeHits, submissions)
	b.set("server.rejected", "count", promSum(rd.coordM, "svmsimd_jobs_rejected_total")+promSum(rd.workerM, "svmsimd_jobs_rejected_total"))

	dispatchMs := 0.0
	if n := promSum(rd.coordM, "fleet_dispatch_latency_seconds_count"); n > 0 {
		dispatchMs = promSum(rd.coordM, "fleet_dispatch_latency_seconds_sum") / n * 1e3
	}
	b.set("fleet.overhead_ms", "ms", dispatchMs-simMs)
	b.set("fleet.join_ms", "ms", rd.joinMs)
	dispatched := promSum(rd.coordM, "fleet_cells_dispatched_total")
	hedges := promSum(rd.coordM, "fleet_hedges_total")
	hedgeRatio := 0.0
	if dispatched > 0 {
		hedgeRatio = hedges / dispatched
	}
	b.set("fleet.hedge_ratio", "ratio", hedgeRatio)
	b.set("fleet.dispatched", "count", dispatched)
	b.set("fleet.redispatched", "count", promSum(rd.coordM, "fleet_jobs_redispatched_total"))
	b.set("fleet.local_fallbacks", "count", promSum(rd.coordM, "fleet_local_fallbacks_total"))
}

// probeServing plays a short trace against a fresh fleet so the sweeps'
// traced runs report the serving layers too.
func (b *bench) probeServing() error {
	sc := tinyScale
	sc.servePoints = 2
	universe, err := serveUniverse(sc)
	if err != nil {
		return err
	}
	golden, err := loadServeGolden()
	if err != nil {
		return err
	}
	rd, err := b.playRound(universe, buildServeTrace(b.opts.seed, sc, len(universe)), golden, "serving-probe")
	if err != nil {
		return err
	}
	b.reportServing(rd)
	return nil
}
