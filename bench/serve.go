package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"buanalysis/internal/core"
	"buanalysis/internal/expstore"
)

// serveRequests is the serve workload's fixed request count.
const (
	serveRequests      = 150000
	serveSmokeRequests = 200
	// serveConns closed-loop connections: each is a caller that sends its
	// next request when the previous answer arrives, so a stall delays
	// later requests instead of piling up a queue that would dominate the
	// tail.
	serveConns = 2
	// serveSpecialShare of requests go to the table and sweep endpoints.
	serveSpecialShare = 0.01
)

// solvePaths are the 675 setting-1 /solve keys: three incentive models,
// alpha 1-25%, nine Bob:Carol splits, -fast tolerances.
func solvePaths() []string {
	var paths []string
	for _, model := range []string{"compliant", "noncompliant", "nonprofit"} {
		for a := 1; a <= 25; a++ {
			for _, r := range core.PaperRatios {
				paths = append(paths, fmt.Sprintf("/solve?model=%s&setting=1&alpha=%g&ratio=%s&ratio_tol=%g&epsilon=%g",
					model, float64(a)/100, r.Name, fastRatioTol, fastEpsilon))
			}
		}
	}
	return paths
}

// specialPaths are the table and sweep requests mixed into the stream.
var specialPaths = []string{
	"/tables/2?setting=1&fast=1",
	"/tables/3?setting=1&fast=1",
	"/tables/4?setting=1&fast=1",
	"/sweep?model=compliant&setting=1&fast=1",
	"/sweep?model=noncompliant&setting=1&fast=1",
	"/sweep?model=nonprofit&setting=1&fast=1",
}

// servePaths is every path the stream can request; serveStream returns
// indices into it.
func servePaths() []string {
	return append(solvePaths(), specialPaths...)
}

// serveStream draws the seeded request stream: the /solve keys from a
// Zipf(s=1.1) over a seeded ranking of the keys, and about 1% table and
// sweep requests.
func serveStream(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	solves := len(solvePaths())
	rank := rng.Perm(solves)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(solves-1))
	out := make([]int, n)
	for i := range out {
		if rng.Float64() < serveSpecialShare {
			out[i] = solves + rng.Intn(len(specialPaths))
		} else {
			out[i] = rank[zipf.Uint64()]
		}
	}
	return out
}

// served is one answered request.
type served struct {
	ms    float64
	cache string // X-Cache: "hit", "miss" or ""
	bytes int
	// solveMS is a /solve miss body's solve duration (0 otherwise).
	solveMS float64
	err     error
}

// serveRep starts buserve on a fresh store and sends the request stream
// over closed-loop connections, checking that every body for a path is
// byte-identical to the first one served for it.
func serveRep(e *env, _ bool) (rep, error) {
	dir, err := e.tempDir()
	if err != nil {
		return rep{}, err
	}
	defer os.RemoveAll(dir)
	srv, setup, err := startServer(e, dir)
	if err != nil {
		return rep{}, err
	}
	defer srv.p.stop()

	paths := servePaths()
	n := serveRequests
	if e.smoke {
		n = serveSmokeRequests
	}
	stream := serveStream(e.seed, n)
	client := &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true},
	}
	defer client.CloseIdleConnections()

	results := make([]served, n)
	var (
		mu    sync.Mutex
		first = make([][]byte, len(paths))
		next  atomic.Int64
		wg    sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				path := paths[stream[i]]
				r, body := fetch(client, srv.base+path)
				if r.err == nil {
					mu.Lock()
					if first[stream[i]] == nil {
						first[stream[i]] = body
					} else if !bytes.Equal(first[stream[i]], body) {
						r.err = fmt.Errorf("%s: body differs from the first one served", path)
					}
					mu.Unlock()
				}
				if r.err == nil && r.cache == "miss" && strings.HasPrefix(path, "/solve") {
					var rec expstore.BUSolveRecord
					if err := json.Unmarshal(body, &rec); err != nil {
						r.err = fmt.Errorf("%s: %w", path, err)
					}
					r.solveMS = float64(rec.Stats.Duration) / 1e6
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	var st struct {
		Store expstore.Stats `json:"store"`
	}
	statszErr := getJSON(srv.base+"/statsz", &st)
	cpu, err := srv.stop()
	if err != nil {
		return rep{}, err
	}
	r := rep{setup: setup, wall: wall, cpu: cpu, attempted: n}
	if statszErr != nil {
		r.failed++
		r.problems = append(r.problems, statszErr.Error())
	}
	var all, hits, misses, solves []float64
	var bytesTotal int
	for _, s := range results {
		if s.err != nil {
			r.failed++
			if len(r.problems) < 10 {
				r.problems = append(r.problems, s.err.Error())
			}
			continue
		}
		all = append(all, s.ms)
		bytesTotal += s.bytes
		switch s.cache {
		case "hit":
			hits = append(hits, s.ms)
		case "miss":
			misses = append(misses, s.ms)
			if s.solveMS > 0 {
				solves = append(solves, s.solveMS)
			}
		}
	}
	r.layers = map[string]float64{
		"req_per_s":             float64(len(all)) / wall,
		"req_p50_ms":            quantile(all, 0.50),
		"req_p99_ms":            quantile(all, 0.99),
		"buserve.hit_p50_ms":    quantile(hits, 0.50),
		"buserve.hit_p99_ms":    quantile(hits, 0.99),
		"buserve.miss_p50_ms":   quantile(misses, 0.50),
		"buserve.miss_solve_ms": median(solves),
		"buserve.bytes_per_req": float64(bytesTotal) / float64(n),
		"expstore.hits":         float64(st.Store.Hits),
		"expstore.misses":       float64(st.Store.Solves),
		"expstore.disk_hits":    float64(st.Store.DiskHits),
	}
	return r, nil
}

// fetch GETs url and times it; a status other than 2xx is an error.
func fetch(client *http.Client, url string) (served, []byte) {
	start := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		return served{err: err}, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := served{ms: float64(time.Since(start)) / 1e6, cache: resp.Header.Get("X-Cache"), bytes: len(body), err: err}
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		s.err = fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return s, body
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func postJSON(url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
