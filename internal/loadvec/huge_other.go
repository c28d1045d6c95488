//go:build !linux

package loadvec

// adviseHuge is a no-op where the kernel offers no huge-page advice; the
// advice never changes results.
func adviseHuge[E any](s []E) {}
