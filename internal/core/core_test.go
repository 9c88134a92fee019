package core

import (
	"math"
	"strings"
	"testing"

	"buanalysis/internal/bumdp"
)

func TestRatioSplit(t *testing.T) {
	r := Ratio{"2:1", 2, 1}
	beta, gamma := r.Split(0.1)
	if math.Abs(beta-0.6) > 1e-12 || math.Abs(gamma-0.3) > 1e-12 {
		t.Errorf("split = (%g, %g), want (0.6, 0.3)", beta, gamma)
	}
}

func TestAdmissible(t *testing.T) {
	cases := []struct {
		ratio string
		alpha float64
		want  bool
	}{
		{"1:1", 0.25, true},
		{"4:1", 0.20, false}, // gamma = 0.16 < alpha
		{"1:4", 0.20, false}, // beta = 0.16 < alpha
		{"2:1", 0.25, true},  // gamma = 0.25 = alpha: boundary admissible
		{"1:3", 0.25, false},
	}
	for _, tc := range cases {
		r := RatioByName(PaperRatios, tc.ratio)
		if got := r.Admissible(tc.alpha); got != tc.want {
			t.Errorf("Admissible(%s, %g) = %v, want %v", tc.ratio, tc.alpha, got, tc.want)
		}
	}
}

// TestSweepTable2Subset regenerates a 2x2 corner of Table 2 through the
// sweep machinery and checks the paper's values.
func TestSweepTable2Subset(t *testing.T) {
	cells := Sweep(bumdp.Compliant, SweepConfig{
		Alphas:   []float64{0.20, 0.25},
		Ratios:   []Ratio{{"1:1", 1, 1}, {"2:3", 2, 3}},
		Settings: []bumdp.Setting{bumdp.Setting1},
	})
	want := map[string]float64{
		"alpha=0.2 1:1 set1 model=0":  0.20,
		"alpha=0.25 1:1 set1 model=0": 0.2624,
		"alpha=0.2 2:3 set1 model=0":  0.2115,
		"alpha=0.25 2:3 set1 model=0": 0.2739,
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("%s: %v", c.Key(), c.Err)
		}
		w, ok := want[c.Key()]
		if !ok {
			t.Fatalf("unexpected cell %s", c.Key())
		}
		if math.Abs(c.Value-w) > 5e-4 {
			t.Errorf("%s = %.4f, want %.4f", c.Key(), c.Value, w)
		}
		if c.Honest != c.Alpha {
			t.Errorf("%s honest = %g, want alpha", c.Key(), c.Honest)
		}
	}
}

func TestSweepSkipsInadmissibleCells(t *testing.T) {
	cells := Sweep(bumdp.Compliant, SweepConfig{
		Alphas:   []float64{0.25},
		Ratios:   []Ratio{{"4:1", 4, 1}},
		Settings: []bumdp.Setting{bumdp.Setting1},
	})
	if len(cells) != 1 || !cells[0].Skipped {
		t.Errorf("expected one skipped cell, got %+v", cells)
	}
}

func TestBitcoinBaselineSubset(t *testing.T) {
	cells := BitcoinBaseline([]float64{0.25}, []float64{0.5}, nil)
	if len(cells) != 1 {
		t.Fatalf("got %d cells", len(cells))
	}
	if cells[0].Err != nil {
		t.Fatal(cells[0].Err)
	}
	if math.Abs(cells[0].Value-0.38) > 6e-3 {
		t.Errorf("baseline = %.4f, want ~0.38", cells[0].Value)
	}
}

func TestFormatTable(t *testing.T) {
	cells := []Cell{
		{Alpha: 0.25, Ratio: "1:1", Setting: bumdp.Setting1, Value: 0.2624},
		{Alpha: 0.25, Ratio: "4:1", Setting: bumdp.Setting1, Skipped: true},
	}
	out := FormatTable(cells, true)
	if !strings.Contains(out, "26.24%") {
		t.Errorf("missing percent cell in:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("missing skip marker in:\n%s", out)
	}
	out = FormatTable(cells, false)
	if !strings.Contains(out, "0.262") {
		t.Errorf("missing plain cell in:\n%s", out)
	}
}

func TestFormatBitcoinBaseline(t *testing.T) {
	out := FormatBitcoinBaseline([]BitcoinBaselineCell{
		{Alpha: 0.25, TieWinProb: 0.5, Value: 0.3828},
	})
	if !strings.Contains(out, "0.383") || !strings.Contains(out, "50%") {
		t.Errorf("unexpected rendering:\n%s", out)
	}
}
