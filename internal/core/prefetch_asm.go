//go:build amd64 || arm64

package core

import "unsafe"

// prefetchBins issues one read prefetch for the byte of bin b at
// base + (b<<shift)>>1, for every b in bins. It reads nothing the Go
// memory model sees and never faults; bins may be empty or nil.
//
//go:noescape
func prefetchBins(base unsafe.Pointer, bins []int, shift uint)
