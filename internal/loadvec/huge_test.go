package loadvec

import "testing"

// TestAdviseHugeKeepsContents: the huge-page advice is a hint over a live
// array — applied to large, small and unaligned views it must leave every
// cell as it was.
func TestAdviseHugeKeepsContents(t *testing.T) {
	big := make([]uint16, 3<<20) // 6 MiB: above the advice threshold
	for i := range big {
		big[i] = uint16(i * 7)
	}
	adviseHuge(big)
	adviseHuge(big[1:]) // unaligned start
	adviseHuge(big[:10])
	adviseHuge([]int32(nil))
	for i, v := range big {
		if v != uint16(i*7) {
			t.Fatalf("cell %d = %d after advice, want %d", i, v, uint16(i*7))
		}
	}
}

// TestBigStoresWorkAfterAdvice builds every advised store above the
// threshold and checks a few writes read back.
func TestBigStoresWorkAfterAdvice(t *testing.T) {
	const n = 1 << 23 // 4 MiB of nibbles, 16 MiB of uint16
	for _, kind := range []StoreKind{StoreDense, StoreCompact, StoreHist, StoreNibble} {
		st, err := NewStore(kind, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{0, 1, n / 2, n - 1} {
			st.Add(b)
		}
		st.Add(n - 1)
		if st.Load(n-1) != 2 || st.Load(n/2) != 1 || st.Load(2) != 0 || st.MaxLoad() != 2 {
			t.Fatalf("%v: loads (%d, %d, %d), max %d", kind, st.Load(n-1), st.Load(n/2), st.Load(2), st.MaxLoad())
		}
	}
}
