package core

import (
	"testing"

	"buanalysis/internal/bumdp"
)

// TestShardRowsPartition checks the round-robin split covers every row
// exactly once at any count.
func TestShardRowsPartition(t *testing.T) {
	cfg := SweepConfig{
		Alphas:   []float64{0.10, 0.15},
		Ratios:   []Ratio{{"2:1", 2, 1}, {"1:1", 1, 1}, {"1:2", 1, 2}},
		Settings: []bumdp.Setting{bumdp.Setting1},
		ADs:      []int{2, 3},
	}
	rows := 2 * 1 * 2 // ADs * settings * alphas
	for count := 1; count <= 5; count++ {
		seen := make(map[int]int)
		for i := 0; i < count; i++ {
			for _, r := range cfg.ShardRows(bumdp.Compliant, i, count) {
				seen[r]++
			}
		}
		if len(seen) != rows {
			t.Fatalf("count=%d covered %d rows, want %d", count, len(seen), rows)
		}
		for r, n := range seen {
			if n != 1 {
				t.Fatalf("count=%d row %d assigned %d times", count, r, n)
			}
		}
	}
}
