package cliflag

import (
	"flag"
	"math"
	"testing"
)

func TestParseRatio(t *testing.T) {
	b, g, err := ParseRatio("2:3")
	if err != nil || b != 2 || g != 3 {
		t.Errorf("ParseRatio(2:3) = %v, %v, %v", b, g, err)
	}
	b, g, err = ParseRatio(" 1.5 : 0.5 ")
	if err != nil || b != 1.5 || g != 0.5 {
		t.Errorf("ParseRatio with spaces = %v, %v, %v", b, g, err)
	}
	for _, bad := range []string{"", "1", "1:", ":2", "0:1", "1:0", "-1:2", "a:b", "1:2:3x"} {
		if _, _, err := ParseRatio(bad); err == nil {
			t.Errorf("accepted ratio %q", bad)
		}
	}
}

func TestSplitRatio(t *testing.T) {
	beta, gamma, err := SplitRatio(0.25, "1:1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta-0.375) > 1e-12 || math.Abs(gamma-0.375) > 1e-12 {
		t.Errorf("SplitRatio(0.25, 1:1) = %v, %v", beta, gamma)
	}
	beta, gamma, err = SplitRatio(0.10, "1:2")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta-0.30) > 1e-12 || math.Abs(gamma-0.60) > 1e-12 {
		t.Errorf("SplitRatio(0.10, 1:2) = %v, %v", beta, gamma)
	}
	if math.Abs((beta+gamma)-(1-0.10)) > 1e-12 {
		t.Error("shares do not sum to 1-alpha")
	}
}

func TestParsePowers(t *testing.T) {
	powers, err := ParsePowers("0.1, 0.2,0.3 ,0.4")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.1, 0.2, 0.3, 0.4}
	for i := range want {
		if powers[i] != want[i] {
			t.Errorf("powers[%d] = %v, want %v", i, powers[i], want[i])
		}
	}
	if _, err := ParsePowers("0.1,x"); err == nil {
		t.Error("accepted junk power")
	}
}

// TestFlagRegistration: LogFlags registers -log-format and -log-level
// with their defaults, and both parse.
func TestFlagRegistration(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	format, level := LogFlags(fs)
	if *format != "plain" || *level != "info" {
		t.Errorf("defaults: -log-format %q -log-level %q", *format, *level)
	}
	if err := fs.Parse([]string{"-log-format", "json", "-log-level", "warn"}); err != nil {
		t.Fatal(err)
	}
	if *format != "json" || *level != "warn" {
		t.Errorf("parsed: -log-format %q -log-level %q", *format, *level)
	}
}
