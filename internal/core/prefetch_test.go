package core

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/loadvec"
	"repro/internal/xrand"
)

// TestPrefetchGate pins where New turns the next-round prefetch on: the KD
// round paths on the serial engine with a store of at least 4 MiB.
func TestPrefetchGate(t *testing.T) {
	cases := []struct {
		name   string
		policy Policy
		p      Params
		want   bool
	}{
		{"nibble/n=2^23", KDChoice, Params{N: 1 << 23, K: 2, D: 64, Store: loadvec.StoreNibble}, true},
		{"nibble/n=2^23-2", KDChoice, Params{N: 1<<23 - 2, K: 2, D: 64, Store: loadvec.StoreNibble}, false},
		{"compact/n=2^21", KDChoice, Params{N: 1 << 21, K: 2, D: 64, Store: loadvec.StoreCompact}, true},
		{"compact/n=2^21/serialized", SerializedKD, Params{N: 1 << 21, K: 2, D: 64, Store: loadvec.StoreCompact}, true},
		{"hist/n=2^20", KDChoice, Params{N: 1 << 20, K: 2, D: 64, Store: loadvec.StoreHist}, true},
		{"dense/n=1e5", KDChoice, Params{N: 100000, K: 2, D: 64}, false},
		{"dense/n=2^19", KDChoice, Params{N: 1 << 19, K: 2, D: 64}, true},
		{"dchoice/n=2^19", DChoice, Params{N: 1 << 19, D: 2}, false},
		{"sharded/n=2^19", KDChoice, Params{N: 1 << 19, K: 2, D: 64, Shards: 2}, false},
	}
	for _, tc := range cases {
		pr := MustNew(tc.policy, tc.p, xrand.New(1))
		if pr.prefetch != tc.want {
			t.Errorf("%s: prefetch = %v, want %v", tc.name, pr.prefetch, tc.want)
		}
		pr.Close()
	}
}

// TestPrefetchBitIdentityAboveGate runs the KD round paths above the
// prefetch gate and pins them against the interface kernel, which never
// prefetches: the hint must not change a load, the max or a message.
func TestPrefetchBitIdentityAboveGate(t *testing.T) {
	stores := []struct {
		kind loadvec.StoreKind
		n    int
	}{{loadvec.StoreNibble, 1 << 23}, {loadvec.StoreCompact, 1 << 21}}
	const rounds = 3000
	for _, policy := range []Policy{KDChoice, SerializedKD} {
		for _, st := range stores {
			p := Params{N: st.n, K: 2, D: 64, Store: st.kind}
			ref := MustNew(policy, p, xrand.New(4242))
			ref.forceInterfaceKernel()
			ref.Place(rounds * p.K)
			want := ref.Loads()
			for _, block := range []int{0, 1, 7} {
				name := fmt.Sprintf("%v/%v/block=%d", policy, st.kind, block)
				pb := p
				pb.Block = block
				got := MustNew(policy, pb, xrand.New(4242))
				if !got.prefetch {
					t.Fatalf("%s: prefetch gate off above 4 MiB", name)
				}
				got.Place(rounds * p.K)
				if !bytes.Equal(loadBytes(want), loadBytes(got.Loads())) {
					t.Fatalf("%s: load vectors differ", name)
				}
				if got.MaxLoad() != ref.MaxLoad() || got.Messages() != ref.Messages() || got.Balls() != ref.Balls() {
					t.Fatalf("%s: (max, messages, balls) = (%d, %d, %d), want (%d, %d, %d)", name,
						got.MaxLoad(), got.Messages(), got.Balls(), ref.MaxLoad(), ref.Messages(), ref.Balls())
				}
			}
		}
	}
}

// loadBytes views a load vector as raw bytes for a fast equality check.
func loadBytes(v loadvec.Vector) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(0)))
}

// TestPrefetchBinsEdgeCases calls the prefetch routine on its edges: nil
// and empty inputs, and the last bin of a minimal raw array for every
// store shift. The routine must neither fault nor change a byte.
func TestPrefetchBinsEdgeCases(t *testing.T) {
	prefetchBins(nil, nil, 0)
	prefetchBins(nil, []int{}, pfShiftDense)
	for _, tc := range []struct {
		name  string
		shift uint
		bins  int // bins in the minimal array
		size  int // its bytes
	}{
		{"nibble", pfShiftNibble, 2, 1},
		{"compact", pfShiftCompact, 1, 2},
		{"hist", pfShiftHist, 1, 4},
		{"dense", pfShiftDense, 1, 8},
	} {
		raw := make([]byte, tc.size)
		for i := range raw {
			raw[i] = byte(0xA5 + i)
		}
		before := bytes.Clone(raw)
		base := unsafe.Pointer(unsafe.SliceData(raw))
		prefetchBins(base, nil, tc.shift)
		prefetchBins(base, []int{}, tc.shift)
		prefetchBins(base, []int{tc.bins - 1, 0, tc.bins - 1}, tc.shift)
		if !bytes.Equal(raw, before) {
			t.Errorf("%s: prefetch changed the array: %x, want %x", tc.name, raw, before)
		}
	}
}
