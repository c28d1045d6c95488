package core

// This file is the probe prefetch of the superstep round engine. At big n
// every sampled bin of a (k,d) round is an independent cache miss, and the
// round stops issuing loads once its gather is done: selection and
// placement run on registers and process scratch. The engine already holds
// the next round's samples (roundEngine.peek), so right after this round's
// gather the specialized kernels hint the next round's d cache lines to the
// hardware, and those misses overlap this round's selection and placement
// instead of stalling the next round's gather.
//
// A prefetch is a hint: it never faults, never changes a byte, and the
// round reads the same loads either way, so results are bit-identical with
// or without it by construction. The hint costs a few ns per probe, which
// only pays once the load array has left the caches, so New turns it on
// only for stores of at least prefetchMinBytes.

import "unsafe"

// prefetchMinBytes is the load-array size (n × Store.BytesPerBin at
// construction) from which the KD round paths prefetch: below it the array
// sits in the last-level cache and the hint is pure overhead.
const prefetchMinBytes = 4 << 20

// Per-store address shifts for prefetchBins: bin b of a raw array lives at
// byte offset (b << shift) >> 1.
const (
	pfShiftNibble  = 0 // two bins per byte
	pfShiftCompact = 2 // uint16 cells
	pfShiftHist    = 3 // int32 cells
	pfShiftDense   = 4 // 64-bit int cells
)

// prefetchNext hints the cache lines of the engine's next round in raw,
// when the process's prefetch gate is on. It is called by the specialized
// kernels after this round's gather and before its selection.
//
//kd:hotpath
func prefetchNext[E any](pr *Process, raw []E, shift uint) {
	if pr.prefetch {
		prefetchBins(unsafe.Pointer(unsafe.SliceData(raw)), pr.eng.peek(), shift)
	}
}
