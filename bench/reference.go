package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// referenceJSON holds every batch cell value (full and smoke sizes) as
// the code computed it when the benchmark was written; bench -record
// regenerates it.
//
//go:embed testdata/reference.json
var referenceJSON []byte

// refTolerance is how far a cell may sit from its reference value: 1.5
// times the fast ratio tolerance, the rule TestBenchSolver applies
// between cold and warm-chained cells.
const refTolerance = 1.5 * fastRatioTol

type reference struct {
	Values map[string]float64 `json:"values"`
}

func loadReference() (reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return r, fmt.Errorf("testdata/reference.json: %w", err)
	}
	return r, nil
}

// check compares one value against the reference.
func (r reference) check(key string, v float64) error {
	want, ok := r.Values[key]
	if !ok {
		return fmt.Errorf("%s: no reference value", key)
	}
	if math.Abs(v-want) > refTolerance {
		return fmt.Errorf("%s = %.6f, reference %.6f (tolerance %g)", key, v, want, refTolerance)
	}
	return nil
}

// recordReference solves every batch workload at both sizes and writes
// their cell values to testdata/reference.json.
func recordReference(e *env) error {
	ref := reference{Values: map[string]float64{}}
	for _, smoke := range []bool{false, true} {
		for _, name := range []string{"table3", "ratio-tables", "gate-boundary"} {
			b, err := setupBatch(name, smoke)
			if err != nil {
				return err
			}
			for _, c := range b.run(nil).cells {
				if c.err != nil {
					return fmt.Errorf("%s: %w", c.key, c.err)
				}
				ref.Values[c.key] = c.value
			}
		}
	}
	blob, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.root, "bench", "testdata", "reference.json"), append(blob, '\n'), 0o644)
}
