//go:build race

package exec_test

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation makes allocation accounting (and so
// the allocation pins) unreliable.
const raceEnabled = true
