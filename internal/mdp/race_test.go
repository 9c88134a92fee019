//go:build race

package mdp_test

// raceEnabled reports a -race build. The BU-chain differential test
// trims its cases under the race detector, which slows its serial
// arithmetic about tenfold and has nothing concurrent to check there.
const raceEnabled = true
