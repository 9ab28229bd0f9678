package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"e9patch"
	"e9patch/internal/workload"
)

func init() { workload.KernelIters = 1500 }

// kernelELF builds a small corpus binary for requests.
func kernelELF(t *testing.T) []byte {
	t.Helper()
	prog, err := workload.BuildKernel("branchy", true)
	if err != nil {
		t.Fatal(err)
	}
	return prog.ELF
}

// metricValue scrapes one unlabelled (or fully-labelled) metric from
// the /metrics endpoint.
func metricValue(t *testing.T, h http.Handler, name string) float64 {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	return 0
}

// waitMetric polls until the metric reaches want or the deadline hits.
func waitMetric(t *testing.T, h http.Handler, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if metricValue(t, h, name) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("metric %s never reached %g (last %g)", name, want, metricValue(t, h, name))
}

// waitFlightWaiters blocks until the flight for key has want waiters.
func waitFlightWaiters(t *testing.T, g *flightGroup, key string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.mu.Lock()
		got := 0
		if f, ok := g.m[key]; ok {
			got = f.waiters
		}
		g.mu.Unlock()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight %s never reached %d waiters (last %d)", key, want, got)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRewriteEndToEnd verifies the plain service path: the served
// output is byte-identical to a direct library rewrite, stats arrive
// in the header, and a repeated request is a cache hit that triggers
// no second rewrite.
func TestRewriteEndToEnd(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLen: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bin := kernelELF(t)
	url := ts.URL + "/v1/rewrite?match=jcc+%26+short&action=empty"

	post := func() (*http.Response, []byte) {
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(bin))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	resp, out := post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("X-E9-Cache") != "miss" {
		t.Fatalf("first request cache status %q, want miss", resp.Header.Get("X-E9-Cache"))
	}

	sel, err := e9patch.SelectMatch("jcc & short")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e9patch.Rewrite(bin, e9patch.Config{Select: sel})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, direct.Output) {
		t.Fatal("served output differs from direct e9patch.Rewrite")
	}

	var st rewriteStats
	if err := json.Unmarshal([]byte(resp.Header.Get("X-E9-Stats")), &st); err != nil {
		t.Fatalf("stats header: %v", err)
	}
	if st.Total != direct.Stats.Total || st.Patched != direct.Stats.Patched() {
		t.Fatalf("stats header %+v does not match direct result %+v", st, direct.Stats)
	}

	resp2, out2 := post()
	if resp2.Header.Get("X-E9-Cache") != "hit" {
		t.Fatalf("second request cache status %q, want hit", resp2.Header.Get("X-E9-Cache"))
	}
	if !bytes.Equal(out2, out) {
		t.Fatal("cache hit returned different bytes")
	}
	if got := metricValue(t, srv.Handler(), "e9served_rewrites_total"); got != 1 {
		t.Fatalf("rewrites_total = %g after a hit, want 1", got)
	}
}

// TestSingleflightCollapse is the load test from the acceptance
// criteria: 64 concurrent identical requests complete successfully
// with exactly one underlying rewrite, verified via /metrics.
func TestSingleflightCollapse(t *testing.T) {
	srv := New(Config{Workers: 4, QueueLen: 64})
	real := srv.rewrite
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	srv.rewrite = func(ctx context.Context, bin []byte, spec *Spec) (*e9patch.Result, error) {
		started <- struct{}{}
		<-release
		return real(ctx, bin, spec)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ts.Client().Transport.(*http.Transport).MaxConnsPerHost = 0

	bin := kernelELF(t)
	url := ts.URL + "/v1/rewrite?match=jcc"

	const n = 64
	type reply struct {
		status int
		cache  string
		body   []byte
	}
	replies := make(chan reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(url, "application/octet-stream", bytes.NewReader(bin))
			if err != nil {
				t.Errorf("post: %v", err)
				replies <- reply{}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			replies <- reply{resp.StatusCode, resp.Header.Get("X-E9-Cache"), body}
		}()
	}

	// Hold the one real rewrite until every request has joined its
	// flight, so all 64 demonstrably overlap. The inflight gauge is not
	// enough: it counts a request before its cache lookups and its
	// flight join, so a request could still be on its way in.
	spec, err := parseSpec(httptest.NewRequest(http.MethodPost, url, nil))
	if err != nil {
		t.Fatal(err)
	}
	waitFlightWaiters(t, srv.flights, cacheKey(bin, spec), n)
	if got := len(started); got != 1 {
		t.Fatalf("%d rewrites started while gated, want 1", got)
	}
	close(release)
	wg.Wait()
	close(replies)

	var first []byte
	for rp := range replies {
		if rp.status != http.StatusOK {
			t.Fatalf("status %d: %s", rp.status, rp.body)
		}
		if first == nil {
			first = rp.body
		} else if !bytes.Equal(first, rp.body) {
			t.Fatal("concurrent requests returned different outputs")
		}
	}

	h := srv.Handler()
	if got := metricValue(t, h, "e9served_rewrites_total"); got != 1 {
		t.Fatalf("rewrites_total = %g, want exactly 1", got)
	}
	if got := metricValue(t, h, "e9served_coalesced_total"); got != n-1 {
		t.Fatalf("coalesced_total = %g, want %d", got, n-1)
	}
	if got := metricValue(t, h, "e9served_cache_misses_total"); got != n {
		t.Fatalf("cache_misses_total = %g, want %d", got, n)
	}
	waitMetric(t, h, "e9served_inflight", 0)
}

// TestQueueOverflow verifies backpressure: with one busy worker and a
// one-slot queue, a third distinct request is rejected with 429 and a
// Retry-After header instead of queueing without bound.
func TestQueueOverflow(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	srv.rewrite = func(ctx context.Context, bin []byte, spec *Spec) (*e9patch.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &e9patch.Result{Output: append([]byte("out:"), bin...)}, nil
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string, ch chan<- *http.Response) {
		resp, err := http.Post(ts.URL+"/v1/rewrite?match=jcc", "application/octet-stream",
			strings.NewReader(body))
		if err != nil {
			t.Errorf("post %q: %v", body, err)
			ch <- nil
			return
		}
		ch <- resp
	}

	// R1 occupies the only worker...
	r1 := make(chan *http.Response, 1)
	go post("binary-one", r1)
	<-started
	// ...R2 occupies the only queue slot...
	r2 := make(chan *http.Response, 1)
	go post("binary-two", r2)
	waitMetric(t, srv.Handler(), "e9served_queue_depth", 1)

	// ...and R3 must be shed.
	r3 := make(chan *http.Response, 1)
	post("binary-three", r3)
	resp3 := <-r3
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if got := metricValue(t, srv.Handler(), "e9served_queue_full_total"); got != 1 {
		t.Fatalf("queue_full_total = %g, want 1", got)
	}

	close(release)
	for _, ch := range []chan *http.Response{r1, r2} {
		resp := <-ch
		if resp == nil {
			t.Fatal("request failed")
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestClientCancelAbortsJob verifies the cancellation plumbing: when
// the only waiting client disconnects, the job context is cancelled
// and the in-flight rewrite aborts (the pipeline-level abort-before-
// emit behaviour is pinned by TestRewriteContextCancelled in the root
// package).
func TestClientCancelAbortsJob(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 4})
	started := make(chan struct{})
	jobErr := make(chan error, 1)
	srv.rewrite = func(ctx context.Context, bin []byte, spec *Spec) (*e9patch.Result, error) {
		close(started)
		<-ctx.Done() // simulate a long rewrite interrupted mid-pipeline
		jobErr <- ctx.Err()
		return nil, ctx.Err()
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/rewrite?match=jcc",
		strings.NewReader("some-binary"))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("unexpected success: %d", resp.StatusCode)
		}
		errc <- err
	}()

	<-started
	cancel()
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error %v, want context canceled", err)
	}
	select {
	case err := <-jobErr:
		if err != context.Canceled {
			t.Fatalf("job context error %v, want Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job context was never cancelled after the last waiter left")
	}
	waitMetric(t, srv.Handler(), "e9served_inflight", 0)
}

// TestRequestTimeout verifies the per-request budget maps to 504.
func TestRequestTimeout(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 4, Timeout: 30 * time.Millisecond})
	srv.rewrite = func(ctx context.Context, bin []byte, spec *Spec) (*e9patch.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/rewrite?match=jcc", "application/octet-stream",
		strings.NewReader("some-binary"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// TestBadRequests covers the 400 surface.
func TestBadRequests(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 1})
	defer srv.Close()
	h := srv.Handler()

	for _, tc := range []struct {
		name, target, body string
	}{
		{"missing match", "/v1/rewrite", "x"},
		{"bad matcher", "/v1/rewrite?match=no-such-term%3D", "x"},
		{"bad action", "/v1/rewrite?match=jcc&action=bogus", "x"},
		{"bad bool", "/v1/rewrite?match=jcc&disable-t1=maybe", "x"},
		{"bad reserve", "/v1/rewrite?match=jcc&reserve=12", "x"},
		{"empty body", "/v1/rewrite?match=jcc", ""},
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", tc.target, strings.NewReader(tc.body)))
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, rr.Code)
		}
	}

	// Not an ELF at all: the rewrite itself fails → 422.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/rewrite?match=jcc", strings.NewReader("not an elf")))
	if rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("non-ELF body: status %d, want 422", rr.Code)
	}
}

// TestHealthzDrain verifies the drain flip for load balancers.
func TestHealthzDrain(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 1})
	defer srv.Close()
	h := srv.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz %d, want 200", rr.Code)
	}
	srv.BeginDrain()
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz %d, want 503", rr.Code)
	}
}

// TestSpecCanonical pins the cache-key canonicalisation: equivalent
// requests share a key, different effective configs do not.
func TestSpecCanonical(t *testing.T) {
	spec := func(target string, hdr map[string]string) *Spec {
		req := httptest.NewRequest("POST", target, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		s, err := parseSpec(req)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		return s
	}

	// Defaults spelled out == defaults omitted.
	a := spec("/v1/rewrite?match=jcc", nil)
	b := spec("/v1/rewrite?match=jcc&action=empty&granularity=1&skip=0&disable-t1=false&b0-fallback=0", nil)
	if a.Canonical() != b.Canonical() {
		t.Fatalf("equivalent specs canonicalise differently:\n%s\n%s", a.Canonical(), b.Canonical())
	}

	// Headers override query values.
	c := spec("/v1/rewrite?match=jcc&action=empty", map[string]string{"X-E9-Action": "lowfat"})
	if c.Action != "lowfat" {
		t.Fatalf("header override failed: action %q", c.Action)
	}
	if c.Canonical() == a.Canonical() {
		t.Fatal("different actions share a canonical key")
	}

	// Reserve ranges are parsed, sorted and keyed.
	d := spec("/v1/rewrite?match=jcc&reserve=0x3000-0x4000,0x1000-0x2000", nil)
	if len(d.Reserve) != 2 || d.Reserve[0] != [2]uint64{0x1000, 0x2000} {
		t.Fatalf("reserve parse/sort: %+v", d.Reserve)
	}
	e := spec("/v1/rewrite?match=jcc&reserve=0x1000-0x2000&reserve=0x3000-0x4000", nil)
	if d.Canonical() != e.Canonical() {
		t.Fatal("reserve ordering changed the canonical key")
	}

	// Tactic toggles are keyed.
	f := spec("/v1/rewrite?match=jcc&disable-t2=true", nil)
	if f.Canonical() == a.Canonical() {
		t.Fatal("disable-t2 did not change the canonical key")
	}

	// Config materialises.
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Patch.DisableT2 || cfg.Select == nil {
		t.Fatal("spec.Config dropped fields")
	}
}

// TestCacheEviction exercises the byte-budgeted LRU.
func TestCacheEviction(t *testing.T) {
	c := newLRUCache[*cacheEntry](100)
	mk := func(n int) *cacheEntry {
		return &cacheEntry{out: bytes.Repeat([]byte("x"), n)}
	}
	c.put("a", mk(40))
	c.put("b", mk(40))
	if _, ok := c.get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", mk(40)) // 120 > 100: evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c should be present")
	}
	entries, used, evictions := c.stats()
	if entries != 2 || used != 80 || evictions != 1 {
		t.Fatalf("stats entries=%d used=%d evictions=%d, want 2/80/1", entries, used, evictions)
	}

	// Oversized entries are not cached at all.
	c.put("huge", mk(200))
	if _, ok := c.get("huge"); ok {
		t.Fatal("entry larger than the budget was cached")
	}

	// Refreshing an existing key adjusts the byte charge.
	c.put("a", mk(60))
	_, used, _ = c.stats()
	if used != 100 {
		t.Fatalf("used = %d after refresh, want 100", used)
	}
}

// TestParallelismSharesCacheEntry verifies the parallelism request
// parameter: it never changes the output bytes, so it is excluded from
// the cache key — requests differing only in parallelism coalesce onto
// one cached entry — and invalid values are rejected up front.
func TestParallelismSharesCacheEntry(t *testing.T) {
	srv := New(Config{Workers: 4, QueueLen: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bin := kernelELF(t)
	post := func(par string) (*http.Response, []byte) {
		url := ts.URL + "/v1/rewrite?match=branch&parallelism=" + par
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(bin))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	resp1, out1 := post("1")
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("parallelism=1 status %d: %s", resp1.StatusCode, out1)
	}
	resp8, out8 := post("8")
	if resp8.StatusCode != http.StatusOK {
		t.Fatalf("parallelism=8 status %d: %s", resp8.StatusCode, out8)
	}
	if resp8.Header.Get("X-E9-Cache") != "hit" {
		t.Fatalf("parallelism=8 cache status %q, want hit (parallelism must not key the cache)",
			resp8.Header.Get("X-E9-Cache"))
	}
	if !bytes.Equal(out1, out8) {
		t.Fatal("output bytes differ across parallelism values")
	}
	if got := metricValue(t, srv.Handler(), "e9served_rewrites_total"); got != 1 {
		t.Fatalf("rewrites_total = %g, want 1", got)
	}

	resp0, body := post("0")
	if resp0.StatusCode != http.StatusBadRequest {
		t.Fatalf("parallelism=0 status %d (%s), want 400", resp0.StatusCode, body)
	}
}

// TestPlanCacheRematerialize pins the second cache tier: with a result
// cache too small to hold anything, a repeat request must be answered
// by rematerializing the banked plan — identical body, no second
// rewrite execution, and the hit recorded in /metrics.
func TestPlanCacheRematerialize(t *testing.T) {
	// CacheBytes: 1 → every result entry is oversized and never cached,
	// so repeat requests can only be served from the plan tier.
	srv := New(Config{Workers: 2, QueueLen: 8, CacheBytes: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bin := kernelELF(t)
	url := ts.URL + "/v1/rewrite?match=jcc&action=empty"
	post := func() (*http.Response, []byte) {
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(bin))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	resp1, out1 := post()
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, out1)
	}
	if got := resp1.Header.Get("X-E9-Cache"); got != "miss" {
		t.Fatalf("first request cache status %q, want miss", got)
	}

	resp2, out2 := post()
	if got := resp2.Header.Get("X-E9-Cache"); got != "plan" {
		t.Fatalf("second request cache status %q, want plan", got)
	}
	if !bytes.Equal(out1, out2) {
		t.Fatal("rematerialized body differs from the original rewrite")
	}
	if resp2.Header.Get("X-E9-Stats") != resp1.Header.Get("X-E9-Stats") {
		t.Fatalf("stats header changed across rematerialization:\n%s\n%s",
			resp1.Header.Get("X-E9-Stats"), resp2.Header.Get("X-E9-Stats"))
	}

	h := srv.Handler()
	if got := metricValue(t, h, "e9served_rewrites_total"); got != 1 {
		t.Fatalf("rewrites_total = %g, want 1 (rematerialize must not replan)", got)
	}
	if got := metricValue(t, h, "e9served_plan_cache_hits_total"); got != 1 {
		t.Fatalf("plan_cache_hits_total = %g, want 1", got)
	}
	if got := metricValue(t, h, "e9served_plan_cache_entries"); got != 1 {
		t.Fatalf("plan_cache_entries = %g, want 1", got)
	}
	if got := metricValue(t, h, "e9served_plan_cache_bytes"); got <= 0 {
		t.Fatalf("plan_cache_bytes = %g, want > 0", got)
	}
}
