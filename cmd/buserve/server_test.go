package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/expstore"
)

// fastSolve is a /solve query with lowered tolerances so tests stay
// quick; the cache semantics under test are tolerance-independent.
const fastSolve = "/solve?alpha=0.25&ratio=1:1&model=compliant&setting=1&ratio_tol=1e-4&epsilon=1e-8"

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	store, err := expstore.Open(expstore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(store, nil, nil, nil, nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if string(body) != "ok\n" {
		t.Fatalf("body = %q, want %q", body, "ok\n")
	}
}

// TestSolveMissThenHit proves the acceptance criterion that a cache-hit
// response is byte-identical to the original solve-on-miss response.
func TestSolveMissThenHit(t *testing.T) {
	srv, ts := newTestServer(t)

	resp1, body1 := get(t, ts.URL+fastSolve)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first status = %d, body %s", resp1.StatusCode, body1)
	}
	if h := resp1.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", h)
	}

	resp2, body2 := get(t, ts.URL+fastSolve)
	if h := resp2.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", h)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("hit body differs from miss body:\nmiss: %s\nhit:  %s", body1, body2)
	}

	var rec expstore.BUSolveRecord
	if err := json.Unmarshal(body1, &rec); err != nil {
		t.Fatalf("response is not a BUSolveRecord: %v", err)
	}
	if rec.Utility <= 0 || rec.States == 0 {
		t.Fatalf("implausible record: %+v", rec)
	}
	if st := srv.store.Stats(); st.Solves != 1 {
		t.Fatalf("store solves = %d, want 1", st.Solves)
	}
}

// TestSolveSingleflight proves that N concurrent identical requests
// trigger exactly one solve.
func TestSolveSingleflight(t *testing.T) {
	srv, ts := newTestServer(t)

	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + fastSolve)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	if st := srv.store.Stats(); st.Solves != 1 {
		t.Fatalf("store solves = %d after %d concurrent requests, want 1", st.Solves, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}

func TestSolveBitcoin(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/solve?model=bitcoin&alpha=0.25&tie=0.5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var rec expstore.BitcoinSolveRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Params.Alpha != 0.25 || rec.Utility <= 0 {
		t.Fatalf("implausible baseline record: %+v", rec)
	}
	resp2, _ := get(t, ts.URL+"/solve?model=bitcoin&alpha=0.25&tie=0.5")
	if h := resp2.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", h)
	}
}

// TestSolveBitcoinCanceledWhileQueued proves a Bitcoin /solve honors
// its request context the way a BU solve does: a client that gives up
// while queued behind a saturated solve budget never gets its solve
// run, and its artifact never reaches the store.
func TestSolveBitcoinCanceledWhileQueued(t *testing.T) {
	store, err := expstore.Open(expstore.Config{MaxConcurrentSolves: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(store, nil, nil, nil, nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Occupy the single budget slot from outside the HTTP plane. The
	// slot is released before the server closes, which waits for a
	// handler still queued behind it.
	holding := make(chan struct{})
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	done := make(chan struct{})
	go func() {
		defer close(done)
		store.GetOrComputeCtx(context.Background(), "busolve-holder", func() ([]byte, error) {
			close(holding)
			<-release
			return []byte(`{"holder":true}`), nil
		})
	}()
	<-holding

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/solve?model=bitcoin&alpha=0.25&tie=0.5", nil)
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		answered <- err
	}()
	waitFor(t, "the Bitcoin solve to queue for the budget", func() bool { return store.Stats().BudgetWaits == 1 })
	cancel()
	if err := <-answered; err == nil {
		t.Fatal("the canceled request got a response")
	}
	inFlight := srv.metrics["GET /solve"].inFlight
	waitFor(t, "the canceled /solve to return", func() bool { return inFlight.Value() == 0 })

	releaseOnce()
	<-done
	key, err := expstore.BitcoinSolveSpec{Params: bitcoin.Params{
		Alpha: 0.25, TieWinProb: 0.5, Objective: bitcoin.AbsoluteReward,
	}}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(key); ok {
		t.Fatal("the canceled Bitcoin solve reached the store")
	}
	if solves := store.Stats().Solves; solves != 1 {
		t.Fatalf("store ran %d solves, want only the holder's", solves)
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestSolveBadParams(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{
		"/solve?alpha=bogus",
		"/solve?alpha=0.25&ratio=nonsense",
		"/solve?model=unknown",
		"/solve?alpha=0.25&beta=0.5&gamma=0.5", // shares sum past 1
		"/solve?setting=7",
		"/sweep?model=unknown",
		"/sweep?setting=9",
	} {
		resp, body := get(t, ts.URL+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", q, resp.StatusCode, body)
		}
	}
}

// TestSweepTableMatchesDirect proves the served table equals the
// formatting of a direct core sweep, and that the warm pass is a hit.
func TestSweepTableMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep solve in -short mode")
	}
	srv, ts := newTestServer(t)

	const q = "/sweep?model=compliant&setting=1&fast=1&format=table"
	resp1, body1 := get(t, ts.URL+q)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp1.StatusCode, body1)
	}
	if h := resp1.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("cold X-Cache = %q, want miss", h)
	}

	cfg := core.SweepConfig{
		Settings: []bumdp.Setting{bumdp.Setting1},
		RatioTol: 1e-4, Epsilon: 1e-8,
	}
	// The store solves cells independently cold, like this sweep.
	cfg.SolveCell = cfg.Normalized(bumdp.Compliant).SolveOne
	want := core.FormatTable(core.Sweep(bumdp.Compliant, cfg), true)
	if string(body1) != want {
		t.Fatalf("served table differs from direct sweep:\nserved:\n%s\ndirect:\n%s", body1, want)
	}

	solves := srv.store.Stats().Solves
	resp2, body2 := get(t, ts.URL+q)
	if h := resp2.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("warm X-Cache = %q, want hit", h)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("warm sweep table differs from cold sweep table")
	}
	if got := srv.store.Stats().Solves; got != solves {
		t.Fatalf("warm sweep ran %d extra solves", got-solves)
	}

	// The JSON form of the same sweep is also fully cached.
	resp3, body3 := get(t, ts.URL+"/sweep?model=compliant&setting=1&fast=1")
	if h := resp3.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("json sweep X-Cache = %q, want hit", h)
	}
	var rec expstore.SweepRecord
	if err := json.Unmarshal(body3, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ModelName != bumdp.Compliant.String() || len(rec.Cells) == 0 {
		t.Fatalf("implausible sweep record: model %q, %d cells", rec.ModelName, len(rec.Cells))
	}
}

func TestTableEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("table solve in -short mode")
	}
	_, ts := newTestServer(t)

	resp, body := get(t, ts.URL+"/tables/4?fast=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "Table 4") {
		t.Fatalf("table body missing title:\n%s", body)
	}

	resp2, body2 := get(t, ts.URL+"/tables/4?fast=1&format=json")
	if h := resp2.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("warm table X-Cache = %q, want hit", h)
	}
	var tr expstore.TableRecord
	if err := json.Unmarshal(body2, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Table != 4 || len(tr.Sweeps) == 0 {
		t.Fatalf("implausible table response: %+v", tr)
	}

	resp3, _ := get(t, ts.URL+"/tables/99")
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown table status = %d, want 404", resp3.StatusCode)
	}
	resp4, _ := get(t, ts.URL+"/tables/bogus")
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-numeric table status = %d, want 400", resp4.StatusCode)
	}
}

// TestStatsz proves /statsz reports request counts, hit/miss ratios,
// in-flight gauges and latency quantiles per endpoint.
func TestStatsz(t *testing.T) {
	_, ts := newTestServer(t)

	get(t, ts.URL+fastSolve)
	get(t, ts.URL+fastSolve)
	get(t, ts.URL+fastSolve)
	get(t, ts.URL+"/healthz")
	get(t, ts.URL+"/solve?alpha=bogus")

	resp, body := get(t, ts.URL+"/statsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st statszResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statsz not JSON: %v\n%s", err, body)
	}

	solve, ok := st.Endpoints["GET /solve"]
	if !ok {
		t.Fatalf("statsz missing GET /solve endpoint: %s", body)
	}
	if solve.Count != 4 {
		t.Errorf("solve count = %d, want 4", solve.Count)
	}
	if solve.Errors != 1 {
		t.Errorf("solve errors = %d, want 1", solve.Errors)
	}
	if solve.Hits != 2 || solve.Misses != 1 {
		t.Errorf("solve hits/misses = %d/%d, want 2/1", solve.Hits, solve.Misses)
	}
	if want := 2.0 / 3.0; solve.HitRatio != want {
		t.Errorf("solve hit ratio = %v, want %v", solve.HitRatio, want)
	}
	if solve.InFlight != 0 {
		t.Errorf("solve in-flight = %d, want 0", solve.InFlight)
	}
	if solve.Latency.Samples != 4 {
		t.Errorf("solve latency samples = %d, want 4", solve.Latency.Samples)
	}
	if solve.Latency.P50ms < 0 || solve.Latency.P95ms < solve.Latency.P50ms || solve.Latency.P99ms < solve.Latency.P95ms {
		t.Errorf("latency quantiles not ordered: %+v", solve.Latency)
	}

	if hz := st.Endpoints["GET /healthz"]; hz.Count != 1 {
		t.Errorf("healthz count = %d, want 1", hz.Count)
	}
	if st.Store.Solves != 1 {
		t.Errorf("store solves = %d, want 1", st.Store.Solves)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v, want > 0", st.UptimeSeconds)
	}
}

// TestMetricsEndpoint proves /metrics serves Prometheus text exposition
// covering the store, the server's own endpoints, and the solver.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	get(t, ts.URL+fastSolve) // miss → one real solve behind the metrics
	get(t, ts.URL+fastSolve) // hit

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE expstore_hits_total counter",
		"expstore_hits_total 1",
		"expstore_solves_total 1",
		"# TYPE buserve_requests_total counter",
		`buserve_requests_total{endpoint="GET /solve"} 2`,
		`buserve_cache_hits_total{endpoint="GET /solve"} 1`,
		"# TYPE buserve_request_seconds summary",
		`buserve_request_seconds_count{endpoint="GET /solve"} 2`,
		"# TYPE mdp_solves_total counter",
		"buserve_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The solve above ran real solver sweeps, so mdp counters moved.
	if strings.Contains(text, "mdp_solves_total 0\n") {
		t.Error("mdp_solves_total still 0 after a served solve")
	}
}

// TestRequestLatencySummary proves a request's latency is recorded in
// one instrument: /metrics exposes the same window /statsz reads, as a
// summary whose quantiles are /statsz's p50/p95/p99 in seconds.
func TestRequestLatencySummary(t *testing.T) {
	_, ts := newTestServer(t)
	get(t, ts.URL+fastSolve)
	get(t, ts.URL+fastSolve)

	_, body := get(t, ts.URL+"/statsz")
	var st statszResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statsz not JSON: %v\n%s", err, body)
	}
	lat := st.Endpoints["GET /solve"].Latency
	_, metrics := get(t, ts.URL+"/metrics")
	text := string(metrics)
	for _, want := range []string{
		"# TYPE buserve_request_seconds summary\n",
		`buserve_request_seconds_count{endpoint="GET /solve"} 2` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, q := range []struct {
		quantile string
		ms       float64
	}{{"0.5", lat.P50ms}, {"0.95", lat.P95ms}, {"0.99", lat.P99ms}} {
		prefix := fmt.Sprintf(`buserve_request_seconds{endpoint="GET /solve",quantile=%q} `, q.quantile)
		var got float64
		found := false
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				got, found = parseFloat(t, v), true
			}
		}
		want := q.ms / 1000
		if !found {
			t.Errorf("exposition missing the %s quantile of GET /solve", q.quantile)
		} else if math.Abs(got-want) > 1e-9*want {
			t.Errorf("quantile %s = %v s, /statsz says %v ms", q.quantile, got, q.ms)
		}
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDebugVars proves /debug/vars serves the registry as JSON.
func TestDebugVars(t *testing.T) {
	_, ts := newTestServer(t)
	get(t, ts.URL+fastSolve)

	resp, body := get(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"expstore_solves_total", "buserve_requests_total", "mdp_solves_total", "par_runs_total"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
}

// TestStatszShapeStable pins the raw /statsz JSON shape: the migration
// of its internals onto the metrics registry must not change a single
// field name or nesting level that pre-registry clients depend on.
func TestStatszShapeStable(t *testing.T) {
	_, ts := newTestServer(t)
	get(t, ts.URL+fastSolve)

	_, body := get(t, ts.URL+"/statsz")
	var raw struct {
		Endpoints map[string]struct {
			Count    *int64   `json:"count"`
			Errors   *int64   `json:"errors"`
			Hits     *int64   `json:"hits"`
			Misses   *int64   `json:"misses"`
			HitRatio *float64 `json:"hit_ratio"`
			InFlight *int64   `json:"in_flight"`
			Latency  *struct {
				Samples *int     `json:"samples"`
				P50     *float64 `json:"p50_ms"`
				P95     *float64 `json:"p95_ms"`
				P99     *float64 `json:"p99_ms"`
			} `json:"latency"`
		} `json:"endpoints"`
		Store  *expstore.Stats `json:"store"`
		Uptime *float64        `json:"uptime_s"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("statsz not JSON: %v\n%s", err, body)
	}
	if raw.Store == nil || raw.Uptime == nil {
		t.Fatalf("statsz missing top-level fields: %s", body)
	}
	ep, ok := raw.Endpoints["GET /solve"]
	if !ok {
		t.Fatalf("statsz missing GET /solve: %s", body)
	}
	if ep.Count == nil || ep.Errors == nil || ep.Hits == nil || ep.Misses == nil ||
		ep.HitRatio == nil || ep.InFlight == nil || ep.Latency == nil {
		t.Fatalf("GET /solve entry missing fields: %s", body)
	}
	if ep.Latency.Samples == nil || ep.Latency.P50 == nil || ep.Latency.P95 == nil || ep.Latency.P99 == nil {
		t.Fatalf("latency entry missing fields: %s", body)
	}
}

// TestServedBlobMatchesCLI proves a served /solve body equals the blob
// the expstore API (and thus bumdp -json) produces for the same params.
func TestServedBlobMatchesCLI(t *testing.T) {
	srv, ts := newTestServer(t)

	_, body := get(t, ts.URL+fastSolve)

	spec := expstore.BUSolveSpec{
		Params:   bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375, Model: bumdp.Compliant},
		RatioTol: 1e-4, Epsilon: 1e-8,
	}
	_, blob, hit, err := expstore.Solve[expstore.BUSolveRecord](context.Background(), srv.store, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("direct Solve after served solve was not a hit — key mismatch between server and store API")
	}
	if want := fmt.Sprintf("%s\n", blob); string(body) != want {
		t.Fatalf("served body != store blob:\nserved: %s\nstore:  %s", body, want)
	}
}

// TestSolveShedsWhenSaturated proves the overload-shedding contract:
// with -max-solve-wait configured, a solve queued behind a saturated
// budget past the bound is refused with 429 + Retry-After (and counted
// on buserve_sheds_total) instead of waiting forever, and the same
// query succeeds once the budget frees.
func TestSolveShedsWhenSaturated(t *testing.T) {
	store, err := expstore.Open(expstore.Config{
		Dir:                 t.TempDir(),
		MaxConcurrentSolves: 1,
		MaxBudgetWait:       20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(store, nil, nil, nil, nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Occupy the single budget slot from outside the HTTP plane.
	holding := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		store.GetOrComputeCtx(context.Background(), "busolve-holder", func() ([]byte, error) {
			close(holding)
			<-release
			return []byte(`{"holder":true}`), nil
		})
	}()
	<-holding

	resp, body := get(t, ts.URL+fastSolve)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carried no Retry-After header")
	}
	if got := srv.sheds.Value(); got != 1 {
		t.Fatalf("buserve_sheds_total = %d, want 1", got)
	}

	close(release)
	<-done
	resp2, body2 := get(t, ts.URL+fastSolve)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, body %s", resp2.StatusCode, body2)
	}
}
