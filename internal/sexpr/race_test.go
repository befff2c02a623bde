//go:build race

package sexpr

// The race detector makes sync.Pool drop a share of what is put back,
// so allocation counts over pooled scratch mean nothing under it.
func init() { raceEnabled = true }
