//go:build race

package plan

// raceEnabled gates allocation-count regression tests that go through a
// sync.Pool: the race detector makes pools intentionally drop items, so
// those AllocsPerRun guards are only meaningful without it.
const raceEnabled = true
