package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/farm"
	"buanalysis/internal/jobqueue"
	"buanalysis/internal/obs"
	"buanalysis/internal/tracetree"
)

// farmWorkers is how many buworker processes drain the queue.
const farmWorkers = 2

// smokeFarmCoverage is the share of traced job time the named layers
// must account for in a smoke run (minCoverage otherwise).
const smokeFarmCoverage = 0.85

// farmRequest is the farm's sweep: the table3 grid without the Bitcoin
// block, one shard per row (smoke: setting 1 in two shards). Table 4 is
// left out because verify rejects honest non-profit artifacts above 1
// (see README.md).
func farmRequest(smoke bool) farm.SweepRequest {
	cfg := core.SweepConfig{RatioTol: fastRatioTol, Epsilon: fastEpsilon}
	count := 14
	if smoke {
		cfg.Settings = []bumdp.Setting{bumdp.Setting1}
		count = 2
	}
	return farm.SweepRequest{Model: int(bumdp.NonCompliant), Config: cfg, Count: count}
}

// farmRep starts a coordinator with its journal on, posts the sharded
// sweep, lets two draining workers empty the queue, and fetches the
// merged result. Traced, every process writes its -trace JSONL and the
// per-layer times come from tracetree over those files.
func farmRep(e *env, traced bool) (rep, error) {
	dir, err := e.tempDir()
	if err != nil {
		return rep{}, err
	}
	defer os.RemoveAll(dir)
	var extra []string
	coordTrace := filepath.Join(dir, "coordinator.jsonl")
	if traced {
		extra = []string{"-trace", coordTrace}
	}
	srv, setup, err := startServer(e, dir, extra...)
	if err != nil {
		return rep{}, err
	}
	defer srv.p.stop()

	req := farmRequest(e.smoke)
	r := rep{setup: setup, attempted: req.Count + 1} // the shards and the merge
	fail := func(format string, args ...any) {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}

	start := time.Now()
	var enq farm.SweepEnqueueResponse
	if err := postJSON(srv.base+"/jobs/sweep", req, &enq); err != nil {
		return rep{}, err
	}
	var workers []*proc
	var traces, logs []string
	for i := 0; i < farmWorkers; i++ {
		args := []string{"-server", srv.base, "-drain", "-concurrency", "1", "-quiet",
			"-name", fmt.Sprintf("bench-worker-%d", i)}
		if traced {
			path := filepath.Join(dir, fmt.Sprintf("worker-%d.jsonl", i))
			traces = append(traces, path)
			args = append(args, "-trace", path)
		}
		logPath := filepath.Join(dir, fmt.Sprintf("worker-%d.log", i))
		logf, err := os.Create(logPath)
		if err != nil {
			return rep{}, err
		}
		p, err := startProc(filepath.Join(e.bin, "buworker"), args, logf, logf)
		logf.Close()
		if err != nil {
			return rep{}, err
		}
		workers = append(workers, p)
		logs = append(logs, logPath)
	}
	for i, p := range workers {
		cpu, err := p.wait()
		if err != nil {
			fail("%v: %s", err, tail(logs[i]))
		}
		r.cpu += cpu
	}
	var result farm.SweepResultResponse
	resultErr := postJSON(srv.base+"/jobs/sweep/result", req, &result)
	r.wall = time.Since(start).Seconds()

	var qs jobqueue.Stats
	if err := getJSON(srv.base+"/jobs/statsz", &qs); err != nil {
		return rep{}, err
	}
	cpu, err := srv.stop()
	if err != nil {
		return rep{}, err
	}
	r.cpu += cpu

	if qs.VerifyRejects > 0 {
		r.failed += int(qs.VerifyRejects)
		r.problems = append(r.problems, fmt.Sprintf("verify rejected %d completions", qs.VerifyRejects))
	}
	if qs.DeadLettered > 0 {
		r.failed += int(qs.DeadLettered)
		r.problems = append(r.problems, fmt.Sprintf("%d jobs dead-lettered", qs.DeadLettered))
	}
	if resultErr != nil {
		fail("merge: %v", resultErr)
	} else if err := checkMerge(e, req, result); err != nil {
		fail("merge: %v", err)
	} else {
		rec, _ := json.Marshal(result.Record)
		sum := sha256.Sum256(rec)
		r.digest = hex.EncodeToString(sum[:])
	}

	if traced {
		want := minCoverage
		if e.smoke {
			// A smoke shard solves in milliseconds, so the fixed HTTP and
			// merge time outside the named layers is a larger share.
			want = smokeFarmCoverage
		}
		r.layers, err = farmLayers(coordTrace, traces, req.Count, qs, want)
		if err != nil {
			fail("trace: %v", err)
		}
	}
	return r, nil
}

// checkMerge compares the merged sweep with an in-process warm-chained
// core.Sweep of the same grid, bit for bit, and its cells with the
// reference values.
func checkMerge(e *env, req farm.SweepRequest, got farm.SweepResultResponse) error {
	want, err := e.chainedReference(req)
	if err != nil {
		return err
	}
	rec, err := json.Marshal(got.Record)
	if err != nil {
		return err
	}
	if !bytes.Equal(rec, want.Record) || got.Table != want.Table {
		return fmt.Errorf("merged sweep differs from the in-process chained sweep")
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	for _, c := range got.Record.Cells {
		if c.Skipped {
			continue
		}
		key := cellKey(core.Cell{Model: bumdp.IncentiveModel(c.Model), Setting: bumdp.Setting(c.Setting),
			AD: c.AD, Alpha: c.Alpha, Ratio: c.Ratio})
		if err := ref.check(key, c.Value); err != nil {
			return err
		}
	}
	return nil
}

// farmLayers reads the processes' trace files. tracetree attributes each
// job's path to queue wait, dispatch, solve and store put; verify.check
// events carry no trace ID, so tracetree counts their time under "other"
// and they are read from the coordinator's file directly.
func farmLayers(coordTrace string, workerTraces []string, jobs int, qs jobqueue.Stats, want float64) (map[string]float64, error) {
	var verifyMS float64
	var checks, rejects int
	f, err := os.Open(coordTrace)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s: %w", coordTrace, err)
		}
		switch ev.Kind {
		case "verify.check":
			checks++
			verifyMS += ev.DurMS
		case "verify.reject":
			rejects++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	events, err := tracetree.Load(append([]string{coordTrace}, workerTraces...)...)
	if err != nil {
		return nil, err
	}
	report := tracetree.Analyze(tracetree.Build(events))
	t := report.Totals
	layers := map[string]float64{
		"verify.check_s":   verifyMS / 1e3,
		"verify.checks":    float64(checks),
		"verify.rejects":   float64(rejects),
		"jobqueue.wait_s":  t.QueueWaitMS / 1e3,
		"jobqueue.leases":  float64(qs.Leases),
		"jobqueue.retries": float64(qs.Retries),
		"farm.solve_s":     t.SolveMS / 1e3,
		"farm.dispatch_s":  t.LeaseToStartMS / 1e3,
		"farm.other_s":     (t.OtherMS - verifyMS) / 1e3,
		"expstore.put_s":   t.StorePutMS / 1e3,
	}
	if len(report.Jobs) != jobs {
		return layers, fmt.Errorf("trace holds %d complete job paths, want %d", len(report.Jobs), jobs)
	}
	if coverage := 1 - (t.OtherMS-verifyMS)/t.TotalMS; coverage < want {
		return layers, fmt.Errorf("named layers cover %.1f%% of traced job time, want at least %.0f%%", 100*coverage, 100*want)
	}
	return layers, nil
}
