//go:build race

package features

// raceEnabled reports that this test binary was built with the race
// detector, under which the runtime allocates for instrumentation —
// allocation-count assertions are meaningless there.
const raceEnabled = true
