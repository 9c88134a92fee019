//go:build !race

package mdp_test

const raceEnabled = false
