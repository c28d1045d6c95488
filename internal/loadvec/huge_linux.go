//go:build linux

package loadvec

import (
	"syscall"
	"unsafe"
)

// hugeAdviseMin is the raw load-array size from which a store asks the
// kernel for transparent huge pages: at big n every probe is a random
// access over the whole array, and 2 MiB pages cut its TLB misses.
const hugeAdviseMin = 4 << 20

// hugePageSize is the huge-page size the advice is aligned to.
const hugePageSize = 2 << 20

// adviseHuge applies MADV_HUGEPAGE to the 2 MiB-aligned interior of a raw
// load array of at least hugeAdviseMin bytes. It is advice only: the array
// stays a Go heap allocation, its contents and every result are unchanged,
// and the error is ignored because a refusal (or THP disabled) leaves the
// store working on ordinary pages.
func adviseHuge[E any](s []E) {
	var zero E
	size := uintptr(len(s)) * unsafe.Sizeof(zero)
	if size < hugeAdviseMin {
		return
	}
	base := unsafe.Pointer(unsafe.SliceData(s))
	b := unsafe.Slice((*byte)(base), size)
	addr := uintptr(base)
	lo := (addr+hugePageSize-1)&^(hugePageSize-1) - addr
	hi := (addr+size)&^(hugePageSize-1) - addr
	if lo < hi {
		_ = syscall.Madvise(b[lo:hi], syscall.MADV_HUGEPAGE)
	}
}
