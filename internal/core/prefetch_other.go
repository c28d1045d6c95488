//go:build !amd64 && !arm64

package core

import "unsafe"

// prefetchBins is a no-op on architectures without a prefetch routine:
// the hint is optional, and results never depend on it.
func prefetchBins(base unsafe.Pointer, bins []int, shift uint) {}
