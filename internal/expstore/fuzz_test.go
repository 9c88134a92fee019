package expstore

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"buanalysis/internal/bumdp"
)

// FuzzCanonicalKey fuzzes the cache-key derivation with arbitrary kinds
// and parameter scalars and checks the contract that the rest of the
// store is built on: keys are deterministic, independent of struct
// field order, sensitive to every parameter and to the version stamp,
// and syntactically safe to use as file names.
func FuzzCanonicalKey(f *testing.F) {
	f.Add("busolve", 0.25, int64(6), "compliant", true)
	f.Add("mcbatch", 0.0, int64(0), "", false)
	f.Add("bitcoinsolve", 0.4999, int64(-3), "non\x00compliant", true)
	f.Add("", 1.0, int64(1), "empty kind must error", false)
	f.Add("a/b", 0.1, int64(2), "slash kind must error", false)
	f.Add("k", math.MaxFloat64, int64(math.MaxInt64), strings.Repeat("x", 200), true)

	type fwd struct {
		Alpha float64 `json:"alpha"`
		AD    int64   `json:"ad"`
		Model string  `json:"model"`
		Gate  bool    `json:"gate"`
	}
	type rev struct {
		Gate  bool    `json:"gate"`
		Model string  `json:"model"`
		AD    int64   `json:"ad"`
		Alpha float64 `json:"alpha"`
	}

	f.Add("busolve", 1e-7, int64(math.Float64bits(1e21)), "e-form floats", false)
	f.Add("busolve", math.Copysign(0, -1), int64(math.Float64bits(5e-324)), "", true)

	f.Fuzz(func(t *testing.T, kind string, alpha float64, ad int64, model string, gate bool) {
		// The direct busolve encoder writes canonicalJSON's bytes for
		// any field values, also ones normalized would refuse.
		bs := BUSolveSpec{
			Params: bumdp.Params{
				Alpha: alpha, Beta: -alpha, Gamma: math.Float64frombits(uint64(ad)),
				AD: int(ad), ADBob: int(ad >> 9), ADCarol: -int(ad), Setting: bumdp.Setting(ad % 3),
				Model: bumdp.IncentiveModel(len(model)), GateWindow: len(kind), DoubleSpendReward: alpha * 1e-300,
				DSLag: int(ad >> 40), DSConvention: bumdp.DSConvention(ad % 2),
			},
			RatioTol: float64(ad), Epsilon: alpha / 7,
		}
		direct, errD := bs.appendCanonical(nil)
		ref, errR := canonicalJSON(bs)
		if (errD == nil) != (errR == nil) || !bytes.Equal(direct, ref) {
			t.Fatalf("busolve encoder %s (%v), canonicalJSON %s (%v)", direct, errD, ref, errR)
		}

		p := fwd{Alpha: alpha, AD: ad, Model: model, Gate: gate}
		k1, err1 := Key(kind, p)

		// Floats JSON cannot represent must error, never panic. Invalid
		// UTF-8 in strings is canonicalized by encoding/json (bad bytes
		// become U+FFFD), so it does NOT error — the checks below still
		// hold for the coerced value.
		badValue := math.IsNaN(alpha) || math.IsInf(alpha, 0)
		badKind := kind == "" || strings.ContainsAny(kind, "/\\. \t\n")
		if badKind && err1 == nil {
			t.Fatalf("kind %q accepted, want error", kind)
		}
		if badValue && err1 == nil {
			t.Fatalf("unencodable params accepted (alpha=%v)", alpha)
		}
		if err1 != nil {
			if k1 != "" {
				t.Fatalf("error with non-empty key %q", k1)
			}
			return
		}

		// Determinism: the same inputs always derive the same key.
		k2, err2 := Key(kind, p)
		if err2 != nil || k2 != k1 {
			t.Fatalf("repeat derivation diverged: %q/%v vs %q", k1, err1, k2)
		}

		// The byte sorter encodes like decoding and re-marshaling, except
		// that it keeps json.Marshal's \ufffd escape for invalid UTF-8.
		if got, err := canonicalJSON(p); err != nil {
			t.Fatal(err)
		} else if want, _ := reparsedJSON(p); utf8.ValidString(model) && !bytes.Equal(got, want) {
			t.Fatalf("canonical encoding %s, reference %s", got, want)
		}

		// Field-order independence: a permuted struct with identical
		// fields is the same artifact.
		k3, err3 := Key(kind, rev{Gate: gate, Model: model, AD: ad, Alpha: alpha})
		if err3 != nil || k3 != k1 {
			t.Fatalf("field order changed the key: %q vs %q (%v)", k1, k3, err3)
		}

		// Shape: "<kind>-<40 hex chars>", safe as a flat file name.
		suffix, ok := strings.CutPrefix(k1, kind+"-")
		if !ok || len(suffix) != 40 || strings.Trim(suffix, "0123456789abcdef") != "" {
			t.Fatalf("malformed key %q", k1)
		}

		// Version-bump invalidation: the stamp is part of the identity.
		kNext, err := keyAt(kind, Version+1, p)
		if err != nil {
			t.Fatal(err)
		}
		if kNext == k1 {
			t.Fatalf("version bump kept the key %q", k1)
		}

		// Sensitivity: perturbing any single parameter moves the key.
		for name, q := range map[string]fwd{
			"alpha": {Alpha: alpha + 1, AD: ad, Model: model, Gate: gate},
			"ad":    {Alpha: alpha, AD: ad + 1, Model: model, Gate: gate},
			"model": {Alpha: alpha, AD: ad, Model: model + "x", Gate: gate},
			"gate":  {Alpha: alpha, AD: ad, Model: model, Gate: !gate},
		} {
			// alpha+1 can be a no-op at float64 extremes; skip only then.
			if name == "alpha" && q.Alpha == alpha {
				continue
			}
			kq, err := Key(kind, q)
			if err != nil {
				t.Fatalf("perturbed %s: %v", name, err)
			}
			if kq == k1 {
				t.Fatalf("perturbing %s kept the key %q", name, k1)
			}
		}
	})
}
