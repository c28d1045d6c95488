package core

import (
	"fmt"
	"testing"

	"repro/internal/loadvec"
	"repro/internal/xrand"
)

// Throughput benchmarks: balls placed per second for each policy. These are
// ablation-grade microbenchmarks; the paper-reproduction benchmarks live in
// the repository root.

func benchPlace(b *testing.B, policy Policy, p Params) {
	b.Helper()
	pr, err := New(policy, p, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	const batch = 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Place(batch)
		if pr.Balls() > 1<<22 {
			b.StopTimer()
			pr.Reset()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(batch), "balls/op")
}

// BenchmarkRound is the selection-kernel ablation: one (k,d)-choice round
// per op at n = 1e5 on the dense store, counting kernel (fast) against the
// reference sort kernel (sort). Each cell places `placed` balls before
// timing; the share of rounds whose samples at the minimum load name fewer
// than k distinct bins, so that the counting path runs after the min-load
// cohort pass, was measured over the first 20,000 rounds after placing:
//
//   - k=2, d=64, n placed: the acceptance cell, ~5% fallback;
//   - k=2, d=64, 8n placed: heavily loaded, ~5% fallback — the process
//     keeps loads as flat at 8n as at n;
//   - k=4, d=16, n placed: few samples per winner, ~40% fallback.
//
// TestRoundAllocationFree enforces 0 allocs/round.
func BenchmarkRound(b *testing.B) {
	for _, cell := range []struct{ k, d, placed int }{{2, 64, 100000}, {2, 64, 800000}, {4, 16, 100000}} {
		for _, tc := range []struct {
			name string
			ref  bool
		}{{"fast", false}, {"sort", true}} {
			b.Run(fmt.Sprintf("%s/n=100000,k=%d,d=%d,placed=%d", tc.name, cell.k, cell.d, cell.placed), func(b *testing.B) {
				pr, err := New(KDChoice, Params{N: 100000, K: cell.k, D: cell.d, referenceSelect: tc.ref}, xrand.New(1))
				if err != nil {
					b.Fatal(err)
				}
				pr.Place(cell.placed)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pr.Round()
				}
				b.ReportMetric(float64(pr.p.K), "balls/op")
			})
		}
	}
}

func BenchmarkPlaceKD(b *testing.B) {
	for _, tc := range []struct{ k, d int }{{1, 2}, {2, 3}, {8, 17}, {128, 193}} {
		b.Run(fmt.Sprintf("k=%d,d=%d", tc.k, tc.d), func(b *testing.B) {
			benchPlace(b, KDChoice, Params{N: 1 << 16, K: tc.k, D: tc.d})
		})
	}
}

func BenchmarkPlaceSingle(b *testing.B) {
	benchPlace(b, SingleChoice, Params{N: 1 << 16})
}

func BenchmarkPlaceDChoice(b *testing.B) {
	benchPlace(b, DChoice, Params{N: 1 << 16, D: 2})
}

func BenchmarkPlaceOnePlusBeta(b *testing.B) {
	benchPlace(b, OnePlusBeta, Params{N: 1 << 16, Beta: 0.5})
}

func BenchmarkPlaceAlwaysGoLeft(b *testing.B) {
	benchPlace(b, AlwaysGoLeft, Params{N: 1 << 16, D: 2})
}

func BenchmarkPlaceAdaptiveKD(b *testing.B) {
	benchPlace(b, AdaptiveKD, Params{N: 1 << 16, K: 2, D: 3})
}

func BenchmarkPlaceSAx0(b *testing.B) {
	benchPlace(b, SAx0, Params{N: 1 << 16, X0: 64})
}

// BenchmarkStaleBatchRound times one StaleBatch round (D = 2) per op and
// reports ns/ball, in cache (n = 1e5) and in DRAM (n = 2e7, 160 MB dense,
// 10 MB nibble), on the dense and nibble stores, at a small and a large
// batch k. Each cell builds its process once, outside the timed runs, and
// places n/4 balls first, so every page of the store is touched before
// timing and first-touch page faults stay out of the reading. Loads reset
// off the clock once a run has placed n balls, so the nibble store never
// spills into its escape table.
func BenchmarkStaleBatchRound(b *testing.B) {
	for _, n := range []int{100000, 20000000} {
		for _, store := range []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreNibble} {
			for _, k := range []int{8, 4096} {
				var pr *Process
				b.Run(fmt.Sprintf("n=%d/store=%v/k=%d", n, store, k), func(b *testing.B) {
					if pr == nil {
						pr = MustNew(StaleBatch, Params{N: n, K: k, D: 2, Store: store}, xrand.New(1))
						pr.Place(n / 4)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						pr.Round()
						if pr.Balls() >= n {
							b.StopTimer()
							pr.Reset()
							b.StartTimer()
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/ball")
				})
				if pr != nil {
					pr.Close()
				}
			}
		}
	}
}

// BenchmarkRoundBigStore times one (2,64) KD round per op on stores far
// past the last-level cache — nibble at n = 2^26 (32 MB) and compact at
// n = 1e7 (20 MB) — where the d-probe gather is DRAM-bound: the in-tree
// cell of the big-n gather item. The prefetch leg runs the engine's
// next-round prefetch (on by default above 4 MiB); the noprefetch leg
// turns it off to isolate what the hint buys. Each process is built once
// and Reset before timing, which writes every page of the store, so
// first-touch faults stay out of the reading.
func BenchmarkRoundBigStore(b *testing.B) {
	for _, cell := range []struct {
		store loadvec.StoreKind
		n     int
	}{{loadvec.StoreNibble, 1 << 26}, {loadvec.StoreCompact, 10000000}} {
		var pr *Process
		for _, pf := range []bool{true, false} {
			leg := "prefetch"
			if !pf {
				leg = "noprefetch"
			}
			b.Run(fmt.Sprintf("store=%v/n=%d/%s", cell.store, cell.n, leg), func(b *testing.B) {
				if pr == nil {
					pr = MustNew(KDChoice, Params{N: cell.n, K: 2, D: 64, Store: cell.store}, xrand.New(1))
					pr.Reset()
					pr.Place(1 << 16)
				}
				pr.prefetch = pf
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pr.Round()
				}
			})
		}
	}
}
