//go:build race

package serve

// raceEnabled reports a -race build. Under the race detector sync.Pool drops
// a random share of what is put back, so allocation caps that rely on the
// server's pooled decoders do not hold there.
const raceEnabled = true
