package expstore

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"buanalysis/internal/bitcoin"
	"buanalysis/internal/bumdp"
	"buanalysis/internal/core"
	"buanalysis/internal/games"
)

// reparsedJSON is the reference canonical encoding: marshal, decode
// into generic values with numbers kept as json.Number, and marshal
// again, which sorts every object's keys.
func reparsedJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	return json.Marshal(tree)
}

// TestCanonicalJSONMatchesReparse holds canonicalJSON to the reference
// encoding on every artifact kind's key parameters and on values with
// nested objects, arrays, nulls, escaped strings and integers beyond
// 2^53, so the byte sorter derives the keys the reference would. (The
// one difference, json.Marshal's \ufffd escape for invalid UTF-8 that
// the reference re-encodes unescaped, is left to FuzzCanonicalKey.)
func TestCanonicalJSONMatchesReparse(t *testing.T) {
	p := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375}
	np, err := p.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.SweepConfig{Alphas: []float64{0.1, 0.25}, RatioTol: 1e-4, Epsilon: 1e-8}.Normalized(bumdp.Compliant)
	eb, err := games.NewEBChoosingGame([]float64{0.2, 0.3, 0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	type inner struct {
		Z     string    `json:"z"`
		A     []any     `json:"a"`
		Empty struct{}  `json:"empty"`
		Nil   *int      `json:"nil"`
		Big   int64     `json:"big"`
		F     []float64 `json:"f"`
	}
	values := []any{
		BUSolveSpec{Params: np, RatioTol: 1e-5, Epsilon: 1e-9},
		sweepShardKey{Model: 1, Alphas: cfg.Alphas, Ratios: cfg.Ratios, Settings: cfg.Settings,
			ADs: cfg.ADs, RatioTol: cfg.RatioTol, Epsilon: cfg.Epsilon, Index: 2, Count: 5},
		MonteCarloSpec{Params: np, Steps: 1000, Batches: 4, Seed: -7},
		bitcoin.Params{Alpha: 0.3, TieWinProb: 0.5},
		eb.Spec(),
		map[string]any{"b": []any{}, "a": map[string]any{}, "ab": "x", "a b": 1, "": nil},
		inner{Z: "quote\" \\ <tag> & é \u2028 \x00", A: []any{true, false, nil, "s", 1.5e300, map[string]int{"y": 1, "x": 2}},
			Big: math.MaxInt64, F: []float64{-0.0, 1e-7, 123456789012}},
		[]inner{{}, {Z: "z"}},
		"top-level string",
		-12.5,
		nil,
	}
	for i, v := range values {
		got, err := canonicalJSON(v)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		want, err := reparsedJSON(v)
		if err != nil {
			t.Fatalf("value %d: reference: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("value %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestBUSolveKeyCoversEveryField sets each field of BUSolveSpec and of
// bumdp.Params, one at a time, to a value other than its default and
// requires the busolve key to move and to equal keyAt over
// canonicalJSON. A field that appendCanonical does not write fails
// here.
func TestBUSolveKeyCoversEveryField(t *testing.T) {
	base, err := BUSolveSpec{Params: bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375}}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	baseKey, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	var fields [][]int
	var walk func(typ reflect.Type, at []int)
	walk = func(typ reflect.Type, at []int) {
		for i := 0; i < typ.NumField(); i++ {
			idx := append(slices.Clip(at), i)
			if f := typ.Field(i); f.Type.Kind() == reflect.Struct {
				walk(f.Type, idx)
			} else {
				fields = append(fields, idx)
			}
		}
	}
	walk(reflect.TypeOf(base), nil)
	for _, idx := range fields {
		s := base
		f := reflect.ValueOf(&s).Elem().FieldByIndex(idx)
		name := reflect.TypeOf(base).FieldByIndex(idx).Name
		switch f.Kind() {
		case reflect.Float64:
			// A relative nudge this small keeps the power shares summing
			// to 1 within bumdp's tolerance.
			if x := f.Float(); x == 0 {
				f.SetFloat(0.5)
			} else {
				f.SetFloat(x * (1 + 1e-12))
			}
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		default:
			t.Fatalf("field %s has kind %s: teach BUSolveSpec.appendCanonical and this test to set it", name, f.Kind())
		}
		got, err := s.Key()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		n, _ := s.normalized()
		want, err := keyAt(KindBUSolve, Version, n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: direct key %s, canonicalJSON key %s", name, got, want)
		}
		if got == baseKey {
			t.Errorf("%s: key did not change", name)
		}
	}
	if len(fields) < 14 {
		t.Errorf("found %d fields, want BUSolveSpec's and bumdp.Params' 14", len(fields))
	}
}

func TestKeyFieldOrderIndependent(t *testing.T) {
	// Two struct types carrying the same fields in different declaration
	// order must produce the same canonical key.
	type ab struct {
		Alpha float64 `json:"alpha"`
		Beta  float64 `json:"beta"`
	}
	type ba struct {
		Beta  float64 `json:"beta"`
		Alpha float64 `json:"alpha"`
	}
	k1, err := Key("busolve", ab{Alpha: 0.25, Beta: 0.375})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key("busolve", ba{Beta: 0.375, Alpha: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("field order changed the key: %s vs %s", k1, k2)
	}
}

func TestKeyZeroValueDefaults(t *testing.T) {
	// Elided defaults and explicitly spelled-out defaults are the same
	// artifact: the normalized params must collide on one key.
	implicit := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375}
	explicit := bumdp.Params{
		Alpha: 0.25, Beta: 0.375, Gamma: 0.375,
		AD: 6, ADBob: 6, ADCarol: 6, Setting: bumdp.Setting1,
		GateWindow: 144, DoubleSpendReward: 10, DSLag: 3,
	}
	k1, err := BUSolveKey(implicit, bumdp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := BUSolveKey(explicit, bumdp.SolveOptions{RatioTol: 1e-5, Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("explicit defaults changed the key: %s vs %s", k1, k2)
	}
}

func TestKeyParallelismNeutral(t *testing.T) {
	p := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375}
	k1, err := BUSolveKey(p, bumdp.SolveOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := BUSolveKey(p, bumdp.SolveOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("parallelism split the cache: %s vs %s", k1, k2)
	}
}

func TestKeySensitivity(t *testing.T) {
	base := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375}
	k0, err := BUSolveKey(base, bumdp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alt := base
	alt.AD = 7
	k1, err := BUSolveKey(alt, bumdp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if k0 == k1 {
		t.Error("different AD produced the same key")
	}
	k2, err := BUSolveKey(base, bumdp.SolveOptions{RatioTol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if k0 == k2 {
		t.Error("different tolerance produced the same key")
	}
	k3, err := Key(KindBitcoinSolve, base)
	if err != nil {
		t.Fatal(err)
	}
	if k0 == k3 {
		t.Error("different kind produced the same key")
	}
}

func TestKeyVersionBumpInvalidates(t *testing.T) {
	p := map[string]float64{"alpha": 0.25}
	k1, err := keyAt("busolve", Version, p)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := keyAt("busolve", Version+1, p)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("version bump did not change the key")
	}
}

func TestKeyRejectsBadKinds(t *testing.T) {
	for _, kind := range []string{"", "a/b", "a b", "a.b", "a\nb"} {
		if _, err := Key(kind, 1); err == nil {
			t.Errorf("accepted kind %q", kind)
		}
	}
}

// TestBUSolveSpecRejectsBadTolerances: normalized refuses a negative,
// NaN or infinite tolerance, so no path derives a key or solves it.
func TestBUSolveSpecRejectsBadTolerances(t *testing.T) {
	p := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375}
	for _, v := range []float64{-1e-8, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, s := range []BUSolveSpec{{Params: p, RatioTol: v}, {Params: p, Epsilon: v}} {
			if _, err := s.Normalized(); err == nil {
				t.Errorf("%+v normalized without error", s)
			}
			if _, err := s.Key(); err == nil {
				t.Errorf("%+v derived a key", s)
			}
		}
	}
}

// BenchmarkBUSolveKey times one BU solve key, the derivation every
// buserve request and every sweep cell pays before touching the store.
func BenchmarkBUSolveKey(b *testing.B) {
	p := bumdp.Params{Alpha: 0.25, Beta: 0.375, Gamma: 0.375}
	opts := bumdp.SolveOptions{RatioTol: 1e-4, Epsilon: 1e-8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BUSolveKey(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}
