package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/expstore"
	"buanalysis/internal/farm"
)

// Files the benchmark keeps between runs in the build directory. Each
// name carries a hash of the repository's Go sources, so a file made by
// other code is never read.

// sourceHash hashes every non-test .go file and go.mod of the repository
// (hidden directories skipped).
func (e *env) sourceHash() (string, error) {
	if e.srcHash != "" {
		return e.srcHash, nil
	}
	h := sha256.New()
	err := filepath.WalkDir(e.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != e.root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		code := strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go")
		if !code && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(e.root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	e.srcHash = hex.EncodeToString(h.Sum(nil))[:16]
	return e.srcHash, nil
}

// cachePath names a file in the build directory for this source tree
// and size.
func (e *env) cachePath(stem string) (string, error) {
	hash, err := e.sourceHash()
	if err != nil {
		return "", err
	}
	if e.smoke {
		stem += "-smoke"
	}
	return filepath.Join(e.build, stem+"-"+hash+".json"), nil
}

// baseline is what untraced runs of a workload leave for its traced
// runs: their wall times (for trace_overhead_frac) and the digest of
// their result values (for the bit-identity check).
type baseline struct {
	Walls  []float64 `json:"walls"`
	Digest string    `json:"digest"`
}

func (e *env) loadBaseline(name string) (baseline, error) {
	var b baseline
	path, err := e.cachePath("baseline-" + name)
	if err != nil {
		return b, err
	}
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return b, nil
	}
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return baseline{}, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// baselineWalls is how many recent untraced wall times a baseline keeps.
const baselineWalls = 20

func (e *env) saveBaseline(name string, wall float64, digest string) error {
	b, err := e.loadBaseline(name)
	if err != nil {
		return err
	}
	b.Walls = append(b.Walls, wall)
	if len(b.Walls) > baselineWalls {
		b.Walls = b.Walls[len(b.Walls)-baselineWalls:]
	}
	b.Digest = digest
	return e.writeCache("baseline-"+name, b)
}

func (e *env) writeCache(stem string, v any) error {
	path, err := e.cachePath(stem)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// chainedSweep is the farm's reference: the sweep record and table of
// an in-process, warm-chained core.Sweep of the farm's grid.
type chainedSweep struct {
	Record json.RawMessage `json:"record"`
	Table  string          `json:"table"`
}

// chainedReference returns the in-process chained sweep of the farm
// request's grid. It takes as long as the farm's own solving, so it is
// computed once per source tree, by the first farm run after its timing
// ends, and cached.
func (e *env) chainedReference(req farm.SweepRequest) (chainedSweep, error) {
	var ref chainedSweep
	path, err := e.cachePath("farm-reference")
	if err != nil {
		return ref, err
	}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &ref); err == nil {
			return ref, nil
		}
	}
	model := bumdp.IncentiveModel(req.Model)
	cells := core.Sweep(model, req.Config)
	for _, c := range cells {
		if c.Err != nil {
			return ref, fmt.Errorf("farm reference sweep: %s: %w", c.Key(), c.Err)
		}
	}
	rec, err := json.Marshal(expstore.NewSweepRecord(model, cells))
	if err != nil {
		return ref, err
	}
	ref = chainedSweep{Record: rec, Table: core.FormatTable(cells, true)}
	return ref, e.writeCache("farm-reference", ref)
}
