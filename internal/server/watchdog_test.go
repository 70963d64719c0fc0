package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"svmsim/internal/exp"
)

// counters snapshots the supervision counters for assertions.
func counters(s *Server) (timeouts, retries, quarantined, deduped uint64) {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	return s.metrics.jobTimeouts, s.metrics.jobRetries, s.metrics.jobsQuarantined, s.metrics.jobsDeduped
}

// TestWatchdogRetriesThenSucceeds: a job whose first attempt exceeds the
// deadline is retried with backoff; once the underlying work unblocks, the
// job finishes done — and its view records the attempts consumed.
func TestWatchdogRetriesThenSucceeds(t *testing.T) {
	s, err := New(Config{
		Suite: testSuite(), Workers: 1,
		JobDeadline: 50 * time.Millisecond, MaxAttempts: 100, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	rec := submitCell(s, gateWorkload("slow", gate))
	if rec.Code != 202 {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}

	// Wait until the watchdog has fired at least once, then unblock.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, retries, _, _ := counters(s); retries >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdog never retried the gated job")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	v := waitTerminal(t, s, jobID(t, rec))
	if v.Status != statusDone {
		t.Fatalf("retried job ended as %+v", v)
	}
	if v.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 after a watchdog retry", v.Attempts)
	}
	timeouts, retries, quarantined, _ := counters(s)
	if timeouts < 1 || retries < 1 || quarantined != 0 {
		t.Fatalf("counters: timeouts=%d retries=%d quarantined=%d", timeouts, retries, quarantined)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogQuarantine: a job that times out on every attempt is
// quarantined after MaxAttempts — terminal, addressable, serving a structured
// job_timeout error — instead of crash-looping on the worker pool forever.
func TestWatchdogQuarantine(t *testing.T) {
	// The cell that proves the worker is released afterwards is simulated
	// up front: its job then finishes from the suite memo, inside the 20 ms
	// deadline on a loaded host too, yet the single worker must still pick
	// it up.
	suite, after := testSuite(), tinyWorkload("after")
	if _, err := suite.RunCell(exp.Cell{Cfg: suite.Base(), W: after}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Suite: suite, Workers: 1,
		JobDeadline: 20 * time.Millisecond, MaxAttempts: 2, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	defer close(gate) // release the abandoned attempt's goroutine at cleanup
	rec := submitCell(s, gateWorkload("poison", gate))
	v := waitTerminal(t, s, jobID(t, rec))
	if v.Status != statusQuarantined || v.ErrKind != "job_timeout" || v.Attempts != 2 {
		t.Fatalf("poison job: %+v", v)
	}
	if !exp.RetryableKind(v.ErrKind) {
		t.Fatal("job_timeout must be retryable: a deadline is host weather")
	}

	res := httptest.NewRecorder()
	s.Handler().ServeHTTP(res, httptest.NewRequest("GET", "/v1/jobs/"+v.ID+"/result", nil))
	if res.Code != 500 {
		t.Fatalf("quarantined result: %d %s", res.Code, res.Body)
	}
	var body errorBody
	if err := json.Unmarshal(res.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Kind != "job_timeout" || !strings.Contains(body.Error.Message, "deadline") {
		t.Fatalf("error envelope: %+v", body)
	}

	timeouts, _, quarantined, _ := counters(s)
	if timeouts != 2 || quarantined != 1 {
		t.Fatalf("counters: timeouts=%d quarantined=%d", timeouts, quarantined)
	}
	// The worker is free again: a fresh job runs to completion immediately.
	rec2 := submitCell(s, after)
	if v2 := waitTerminal(t, s, jobID(t, rec2)); v2.Status != statusDone {
		t.Fatalf("worker not released after quarantine: %+v", v2)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestIdempotentResubmission: while a job is queued or running, submitting
// the same content key again returns the *same* job descriptor (200) and
// schedules nothing new.
func TestIdempotentResubmission(t *testing.T) {
	s, err := New(Config{Suite: testSuite(), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	w := gateWorkload("gate", gate)
	first := submitCell(s, w)
	if first.Code != 202 {
		t.Fatalf("first submit: %d", first.Code)
	}
	id := jobID(t, first)
	for i := 0; i < 3; i++ {
		again := submitCell(s, w)
		if again.Code != 200 {
			t.Fatalf("resubmission %d: %d %s", i, again.Code, again.Body)
		}
		if got := jobID(t, again); got != id {
			t.Fatalf("resubmission %d forked a new job: %s vs %s", i, got, id)
		}
	}
	if _, _, _, deduped := counters(s); deduped != 3 {
		t.Fatalf("deduped = %d, want 3", deduped)
	}
	s.mu.Lock()
	nJobs := len(s.jobs)
	s.mu.Unlock()
	if nJobs != 1 {
		t.Fatalf("dedup created jobs: %d in index", nJobs)
	}
	close(gate)
	if v := waitTerminal(t, s, id); v.Status != statusDone {
		t.Fatalf("deduped job: %+v", v)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestHealthzReadyzSplit: /healthz is pure liveness (200 even while
// draining); /readyz tracks whether the daemon accepts work — 200 when
// serving, 503 during replay and from the moment drain starts.
func TestHealthzReadyzSplit(t *testing.T) {
	s, err := New(Config{Suite: testSuite(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		res := httptest.NewRecorder()
		s.Handler().ServeHTTP(res, httptest.NewRequest("GET", path, nil))
		return res.Code, res.Body.String()
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, `"ready"`) {
		t.Fatalf("readyz: %d %s", code, body)
	}

	// Startup replay window: not ready, but alive.
	s.mu.Lock()
	s.ready = false
	s.mu.Unlock()
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, `"replaying"`) {
		t.Fatalf("readyz during replay: %d %s", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz during replay: %d", code)
	}
	s.mu.Lock()
	s.ready = true
	s.mu.Unlock()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, `"draining"`) {
		t.Fatalf("readyz during drain: %d %s", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz during drain: %d", code)
	}
}

// TestSustainedOverflow: under sustained pressure against a one-slot queue,
// every rejection is a clean 429 with the advertised Retry-After, the
// rejection counter matches exactly, and no previously accepted job is
// affected — acceptance is a promise that overload cannot revoke.
func TestSustainedOverflow(t *testing.T) {
	s, err := New(Config{Suite: testSuite(), Workers: 1, QueueDepth: 1, RetryAfterSeconds: 3})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	held := submitCell(s, gateWorkload("gate", gate))
	waitInflight(t, s, 1)
	queued := submitCell(s, tinyWorkload("queued"))
	if held.Code != 202 || queued.Code != 202 {
		t.Fatalf("setup: %d, %d", held.Code, queued.Code)
	}

	const pressure = 25
	for i := 0; i < pressure; i++ {
		rec := submitCell(s, tinyWorkload(fmt.Sprintf("over-%d", i)))
		if rec.Code != 429 {
			t.Fatalf("overflow %d: %d %s", i, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("Retry-After"); got != "3" {
			t.Fatalf("overflow %d: Retry-After = %q, want 3", i, got)
		}
		if !strings.Contains(rec.Body.String(), `"queue_full"`) {
			t.Fatalf("overflow %d: body %s", i, rec.Body)
		}
	}

	res := httptest.NewRecorder()
	s.Handler().ServeHTTP(res, httptest.NewRequest("GET", "/metrics", nil))
	if want := fmt.Sprintf("svmsimd_jobs_rejected_total %d", pressure); !strings.Contains(res.Body.String(), want) {
		t.Fatalf("metrics missing %q:\n%s", want, res.Body.String())
	}

	close(gate)
	for _, rec := range []*httptest.ResponseRecorder{held, queued} {
		if v := waitTerminal(t, s, jobID(t, rec)); v.Status != statusDone {
			t.Fatalf("accepted job revoked by overload: %+v", v)
		}
	}
	// Pressure gone: a previously rejected cell is accepted on retry.
	if rec := submitCell(s, tinyWorkload("over-0")); rec.Code != 202 && rec.Code != 200 {
		t.Fatalf("post-pressure retry: %d %s", rec.Code, rec.Body)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
