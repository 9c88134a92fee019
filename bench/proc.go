package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one process the benchmark started. A goroutine waits for it
// from the moment it starts, so its exit is always collected.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

// live holds every process the benchmark started that has not exited.
var live struct {
	sync.Mutex
	procs map[*proc]bool
}

// startProc starts path with args. stdout and stderr may be nil
// (discarded). The child is killed if the benchmark dies first.
func startProc(path string, args []string, stdout, stderr *os.File) (*proc, error) {
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*proc]bool{}
	}
	live.procs[p] = true
	live.Unlock()
	go func() {
		p.err = cmd.Wait()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// wait blocks until the process exits and returns its user plus system
// CPU seconds; a non-zero exit is an error.
func (p *proc) wait() (float64, error) {
	<-p.done
	cpu := (p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime()).Seconds()
	if p.err != nil {
		return cpu, fmt.Errorf("%s: %w", filepath.Base(p.cmd.Path), p.err)
	}
	return cpu, nil
}

// stop asks the process to shut down gracefully, kills it if it has not
// exited after a grace period, and waits for it. Calling it again after
// the process exited just returns the same result, so callers may defer
// it for their error paths.
func (p *proc) stop() (float64, error) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
	}
	return p.wait()
}

// killAll kills every live process and waits for each to exit.
func killAll() {
	live.Lock()
	var ps []*proc
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// rssEvery is how often sampleRSS reads the resident sets.
const rssEvery = 10 * time.Millisecond

// sampleRSS starts sampling the summed resident set of every live process
// the benchmark started, every rssEvery. The returned function stops the
// sampling and returns the mean over the samples that found a process, in
// MB. A mean over hundreds of samples is steady from run to run, where
// the maximum resident set is not: it depends on where garbage
// collections fall: over sets of ten table3 runs the rusage maximum
// spread 10-27%, and this mean 2%.
func sampleRSS() (stop func() float64) {
	quit, mean := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var sum float64
		var n int
		for {
			select {
			case <-quit:
				mean <- sum / float64(max(n, 1))
				return
			case <-tick.C:
				if mb, ok := liveRSS(); ok {
					sum += mb
					n++
				}
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-mean
	}
}

// liveRSS sums the resident sets of the live processes, in MB, and
// reports whether there were any.
func liveRSS() (float64, bool) {
	live.Lock()
	var pids []int
	for p := range live.procs {
		pids = append(pids, p.cmd.Process.Pid)
	}
	live.Unlock()
	var mb float64
	found := false
	for _, pid := range pids {
		// statm's second field is the resident set in pages.
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
		if err != nil {
			continue // exited since it was listed
		}
		f := strings.Fields(string(b))
		if len(f) < 2 {
			continue
		}
		pages, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		mb += float64(pages*os.Getpagesize()) / (1 << 20)
		found = true
	}
	return mb, found
}

// buildServers builds the buserve and buworker binaries from source.
func (e *env) buildServers() error {
	if e.serversBuilt {
		return nil
	}
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/buserve", "./cmd/buworker")
	cmd.Dir = e.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building buserve and buworker: %w", err)
	}
	e.serversBuilt = true
	return nil
}

// server is a running buserve.
type server struct {
	p    *proc
	base string
	log  string
}

// readyPoll is how often startServer looks for readiness. A launch takes
// a few milliseconds, so a coarser poll would round setup_s up by a
// noticeable, varying share.
const readyPoll = 100 * time.Microsecond

// startServer launches buserve on a free port with its store (and job
// queue journal) under dir, and returns once /healthz answers 200 along
// with the seconds that took.
func startServer(e *env, dir string, extra ...string) (*server, float64, error) {
	portFile := filepath.Join(dir, "port")
	logPath := filepath.Join(dir, "buserve.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	args := append([]string{"-addr", "127.0.0.1:0", "-portfile", portFile,
		"-cache-dir", filepath.Join(dir, "store")}, extra...)
	start := time.Now()
	p, err := startProc(filepath.Join(e.bin, "buserve"), args, logf, logf)
	if err != nil {
		return nil, 0, err
	}
	s := &server{p: p, log: logPath}
	deadline := start.Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil && strings.HasSuffix(string(b), "\n") {
			s.base = "http://" + strings.TrimSpace(string(b))
			break
		}
		if p.exited() || time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("buserve did not start: %s", tail(logPath))
		}
		time.Sleep(readyPoll)
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if p.exited() || time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("buserve never became healthy: %s", tail(logPath))
		}
		time.Sleep(readyPoll)
	}
	return s, time.Since(start).Seconds(), nil
}

func (s *server) stop() (float64, error) {
	cpu, err := s.p.stop()
	if err != nil {
		err = fmt.Errorf("%w: %s", err, tail(s.log))
	}
	return cpu, err
}

// serverSetup times one buserve launch to readiness in a fresh
// directory, then shuts it down.
func serverSetup(e *env) (float64, error) {
	dir, err := e.tempDir()
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	s, setup, err := startServer(e, dir)
	if err != nil {
		return 0, err
	}
	_, err = s.stop()
	return setup, err
}

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}
