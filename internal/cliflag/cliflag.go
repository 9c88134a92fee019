// Package cliflag holds the flag parsing shared by the repository's
// command-line tools (cmd/bumdp, cmd/bugames, cmd/busim, cmd/butables)
// and the buserve query parser: "B:G" mining-power ratio strings,
// comma-separated power lists, and the trace, metrics, profile, log and
// version flags every binary registers.
package cliflag

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseRatio parses a "B:G" ratio string into its two positive parts.
func ParseRatio(s string) (b, g float64, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad ratio %q (want B:G)", s)
	}
	b, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	g, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err1 != nil || err2 != nil || b <= 0 || g <= 0 {
		return 0, 0, fmt.Errorf("bad ratio %q (want two positive numbers)", s)
	}
	return b, g, nil
}

// SplitRatio derives Bob's and Carol's power shares from Alice's share
// and a "B:G" ratio string: the remaining power 1-alpha is split B:G.
func SplitRatio(alpha float64, ratio string) (beta, gamma float64, err error) {
	b, g, err := ParseRatio(ratio)
	if err != nil {
		return 0, 0, err
	}
	rest := 1 - alpha
	beta = rest * b / (b + g)
	return beta, rest - beta, nil
}

// ParsePowers parses a comma-separated list of mining power shares.
func ParsePowers(s string) ([]float64, error) {
	var powers []float64
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad power %q: %v", part, err)
		}
		powers = append(powers, p)
	}
	return powers, nil
}
