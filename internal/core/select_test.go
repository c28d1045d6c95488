package core

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// roundLog records the multiset of receiving bins of every round.
type roundLog struct {
	rounds [][]int
}

func (rl *roundLog) RoundPlaced(round int, samples, placed, heights []int) {
	r := append([]int(nil), placed...)
	sort.Ints(r)
	rl.rounds = append(rl.rounds, r)
}

// TestFastSelectMatchesReference is the kernel equivalence property: for
// random (n, k, d, seed) the counting kernel and the reference sort kernel
// — run under the same random stream — must select the identical
// receiving-bin multiset in EVERY round, and therefore identical final
// load vectors. This is exact coupling, not a distributional comparison:
// both kernels consume the stream identically and share the keyed-hash tie
// order.
func TestFastSelectMatchesReference(t *testing.T) {
	for _, policy := range []Policy{KDChoice, SerializedKD} {
		t.Run(policy.String(), func(t *testing.T) {
			if err := quick.Check(func(seed uint64, nRaw, kRaw, dRaw, multRaw uint8) bool {
				n := int(nRaw%120) + 8
				k := int(kRaw%8) + 1
				d := k + 1 + int(dRaw%12)
				if d > n {
					d = n
					if k >= d {
						k = d - 1
					}
				}
				m := (int(multRaw%4) + 1) * n / 2
				fast := MustNew(policy, Params{N: n, K: k, D: d}, xrand.New(seed))
				ref := MustNew(policy, Params{N: n, K: k, D: d, referenceSelect: true}, xrand.New(seed))
				fastLog, refLog := &roundLog{}, &roundLog{}
				fast.SetObserver(fastLog)
				ref.SetObserver(refLog)
				fast.Place(m)
				ref.Place(m)
				if !reflect.DeepEqual(fastLog.rounds, refLog.rounds) {
					return false
				}
				return reflect.DeepEqual(fast.Loads(), ref.Loads())
			}, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFastSelectMatchesReferenceHeavy extends the coupling to the heavily
// loaded case (m = 8n + partial final round).
func TestFastSelectMatchesReferenceHeavy(t *testing.T) {
	const n, k, d, seed = 96, 3, 9, 1234
	m := 8*n + 5
	fast := MustNew(KDChoice, Params{N: n, K: k, D: d}, xrand.New(seed))
	ref := MustNew(KDChoice, Params{N: n, K: k, D: d, referenceSelect: true}, xrand.New(seed))
	fast.Place(m)
	ref.Place(m)
	if !reflect.DeepEqual(fast.Loads(), ref.Loads()) {
		t.Fatal("fast and reference kernels diverged under heavy load")
	}
}

// TestFastSelectSparseFallback forces the counting window to overflow
// (sampled loads spread far wider than 2d) so the fast kernel must take its
// internal full-sort fallback — and still match the reference kernel
// exactly.
func TestFastSelectSparseFallback(t *testing.T) {
	const n, k, d, seed = 32, 2, 6, 7
	mk := func(reference bool) *Process {
		pr := MustNew(KDChoice, Params{N: n, K: k, D: d, referenceSelect: reference}, xrand.New(seed))
		// Extreme imbalance: loads 0, 1000, 2000, ... — any round sampling
		// two different bins spans far more than the counting window.
		loads := make([]int, n)
		for b := range loads {
			loads[b] = b * 1000
		}
		pr.setLoads(loads)
		return pr
	}
	fast, ref := mk(false), mk(true)
	fast.Place(20 * k)
	ref.Place(20 * k)
	if !reflect.DeepEqual(fast.Loads(), ref.Loads()) {
		t.Fatal("fallback path diverged from reference kernel")
	}
	if fast.MaxLoad() != ref.MaxLoad() {
		t.Fatal("fallback max loads differ")
	}
}

// TestSelectSmallestSlots: quickselect must put exactly the k smallest
// slots (under the slot total order) into the prefix, for arbitrary inputs.
func TestSelectSmallestSlots(t *testing.T) {
	if err := quick.Check(func(seed uint64, sizeRaw, kRaw uint8) bool {
		size := int(sizeRaw%100) + 1
		k := int(kRaw) % (size + 1)
		rng := xrand.New(seed)
		s := make([]slot, size)
		for i := range s {
			s[i] = slot{bin: i, height: rng.Intn(6), tie: rng.Uint64() % 8}
		}
		want := make([]slot, size)
		copy(want, s)
		sort.Slice(want, func(i, j int) bool { return slotLess(want[i], want[j]) })
		selectSmallestSlots(s, k)
		got := append([]slot{}, s[:k]...)
		sort.Slice(got, func(i, j int) bool { return slotLess(got[i], got[j]) })
		return reflect.DeepEqual(got, append([]slot{}, want[:k]...))
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundaryTieUniform checks the lazily derived tie keys statistically:
// with all bins empty and fixed samples {0,1,2,3}, a (1,4) round has a
// four-way tie at height 1 and each bin must win with probability 1/4.
func TestBoundaryTieUniform(t *testing.T) {
	const trials = 20000
	pr := MustNew(KDChoice, Params{N: 4, K: 1, D: 4}, xrand.New(5))
	counts := make([]int, 4)
	for i := 0; i < trials; i++ {
		copy(pr.samples, []int{0, 1, 2, 3})
		pr.roundKDFromSamples(1)
		for b := 0; b < 4; b++ {
			counts[b] += pr.Load(b)
		}
		pr.Reset()
	}
	for b, c := range counts {
		p := float64(c) / trials
		if p < 0.23 || p > 0.27 {
			t.Fatalf("bin %d won %0.4f of four-way ties, want ~0.25 (counts %v)", b, p, counts)
		}
	}
}

// TestRoundAllocationFree pins the acceptance criterion that the steady-
// state round hot path performs zero heap allocations, on both kernels.
func TestRoundAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		ref  bool
	}{{"fast", false}, {"sort", true}} {
		pr := MustNew(KDChoice, Params{N: 4096, K: 2, D: 64, referenceSelect: tc.ref}, xrand.New(9))
		pr.Place(4096) // warm the scratch buffers
		if avg := testing.AllocsPerRun(200, pr.Round); avg != 0 {
			t.Fatalf("%s kernel: %v allocs per round, want 0", tc.name, avg)
		}
	}
}

// TestMultiplicityRuleFastKernel re-runs the paper's disambiguation-rule
// observer over the fast kernel at adversarial (k, d) shapes, including the
// acceptance-cell shape k=2, d=64.
func TestMultiplicityRuleFastKernel(t *testing.T) {
	for _, tc := range []struct{ k, d int }{{1, 2}, {2, 64}, {7, 8}, {16, 33}} {
		pr := MustNew(KDChoice, Params{N: 256, K: tc.k, D: tc.d}, xrand.New(17))
		rc := &ruleChecker{t: t}
		pr.SetObserver(rc)
		pr.Place(1024)
		if rc.maxSeen != pr.MaxLoad() {
			t.Fatalf("k=%d d=%d: max height seen %d != max load %d", tc.k, tc.d, rc.maxSeen, pr.MaxLoad())
		}
	}
}

// decodeSelectRound turns fuzz bytes into one round's samples and their
// loads: picks[i] names bin picks[i] mod len(loads), whose load is
// loads[bin]·(scale+1). Every sample of a bin reads the same load, as a
// gather pass would produce.
func decodeSelectRound(scale uint16, loads, picks []byte) (samples, ldv []int) {
	samples = make([]int, len(picks))
	ldv = make([]int, len(picks))
	for i, p := range picks {
		b := int(p) % len(loads)
		samples[i] = b
		ldv[i] = int(loads[b]) * (int(scale) + 1)
	}
	return samples, ldv
}

// oracleSelect is the definition the selection kernel implements: the c-th
// sample of bin b is the slot at height load(b)+c, every slot carries the
// keyed tie of (bin, height), and the toPlace smallest slots under
// (height, tie, bin) win, ranked ascending.
func oracleSelect(samples, ldv []int, nonce uint64, toPlace int) []slot {
	seen := make(map[int]int)
	slots := make([]slot, 0, len(samples))
	for i, b := range samples {
		seen[b]++
		h := ldv[i] + seen[b]
		slots = append(slots, slot{bin: b, height: h, tie: tieKey(nonce, b, h)})
	}
	sort.Slice(slots, func(i, j int) bool { return slotLess(slots[i], slots[j]) })
	return slots[:min(toPlace, len(slots))]
}

// heldRepeatAfterFull streams one round's min-load cohort through a
// reference top-toPlace, held ascending by tie key at the cohort height,
// and reports whether a sample repeats a held bin after the top-k is full:
// a held bin other than the worst (the cohort pass's repeat check), or the
// single held bin when toPlace is 1 (its threshold compare).
func heldRepeatAfterFull(samples, ldv []int, nonce uint64, toPlace int) bool {
	if toPlace < 1 || toPlace > 4 {
		return false
	}
	m := slices.Min(ldv)
	var held []int
	for i, b := range samples {
		if ldv[i] != m {
			continue
		}
		if j := slices.Index(held, b); j >= 0 {
			if len(held) == toPlace && (j < toPlace-1 || toPlace == 1) {
				return true
			}
			continue
		}
		held = append(held, b)
		sort.Slice(held, func(x, y int) bool { return tieKey(nonce, held[x], m+1) < tieKey(nonce, held[y], m+1) })
		held = held[:min(len(held), toPlace)]
	}
	return false
}

// FuzzSelect checks the selection lane (selector.probeAndRank) against
// oracleSelect over the same samples and loads. The input is one round:
// nonce, toPlace (taken mod d+2, so it also exceeds d), a load scale, the
// per-bin loads and the sample picks (see decodeSelectRound). Each round
// runs twice on one selector, so the group table's epoch reuse is covered
// too. The seeds pin the cases the min-load cohort pass must get right;
// `cohort` is the number of distinct bins at the minimum load and
// `heldRepeat` is heldRepeatAfterFull, both of which the seed loop checks
// before adding each seed. Longer sessions:
//
//	go test -run '^FuzzSelect$' -fuzz '^FuzzSelect$' -fuzztime 5m ./internal/core
func FuzzSelect(f *testing.F) {
	for _, sd := range []struct {
		name         string
		nonce        uint64
		toPlace      uint8
		scale        uint16
		loads, picks []byte
		cohort       int
		wide         bool // load spread beyond the counting window (sort fallback)
		heldRepeat   bool
	}{
		{"cohort k-1", 1, 2, 0, []byte{0, 1, 1, 1, 2, 1, 1, 1}, []byte{0, 1, 2, 3, 4, 5, 6, 7}, 1, false, false},
		{"cohort k", 2, 2, 0, []byte{0, 0, 1, 1, 1, 2, 1, 1}, []byte{0, 1, 2, 3, 4, 5, 6, 7}, 2, false, false},
		{"cohort k+1", 3, 3, 0, []byte{3, 3, 3, 3, 4, 4, 5, 4}, []byte{7, 6, 5, 4, 3, 2, 1, 0}, 4, false, false},
		{"cohort k=4", 4, 4, 0, []byte{1, 1, 1, 1, 2, 2, 2, 2}, []byte{4, 0, 5, 1, 6, 2, 7, 3, 0, 4}, 4, false, true},
		{"repeats in cohort", 5, 2, 0, []byte{0, 0, 0, 1, 1, 1}, []byte{0, 0, 1, 0, 3, 2, 1, 4, 0, 5}, 3, false, true},
		{"repeats, cohort k-1", 6, 2, 0, []byte{0, 1, 1, 1, 1, 1}, []byte{0, 0, 0, 1, 2, 3, 0, 4}, 1, false, false},
		{"repeats fill k, one bin", 7, 3, 0, []byte{2, 2, 2, 2}, []byte{1, 1, 1, 1, 1, 1}, 1, false, false},
		{"all loads equal", 8, 2, 0, []byte{5, 5, 5, 5, 5, 5, 5, 5}, []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 6, false, true},
		{"all loads equal, k > 4", 9, 6, 0, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9}, 10, false, false},
		{"wide spread", 10, 2, 999, []byte{0, 1, 2, 3, 4, 5}, []byte{0, 1, 2, 3, 4, 5}, 1, true, false},
		{"wide spread, repeats", 11, 3, 499, []byte{0, 9, 3, 7}, []byte{1, 0, 2, 3, 0, 1}, 1, true, false},
		{"k = d", 12, 4, 0, []byte{0, 0, 0, 0}, []byte{0, 1, 2, 3}, 4, false, false},
		{"k > d", 13, 4, 0, []byte{0, 1, 2}, []byte{0, 1, 2}, 1, false, false},
		{"k = 0", 14, 0, 0, []byte{0, 1}, []byte{0, 1}, 1, false, false},
		{"held repeat, k=1", 15, 1, 0, []byte{2, 2, 2, 3, 2, 4}, []byte{0, 1, 2, 3, 4, 5, 4, 2, 1, 0, 3}, 4, false, true},
		{"held repeat, k=2", 16, 2, 0, []byte{1, 1, 1, 1, 1, 2, 2}, []byte{6, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4}, 5, false, true},
		{"held repeat, k=3", 17, 3, 0, []byte{0, 0, 0, 0, 0, 0, 1}, []byte{0, 1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1, 0}, 6, false, true},
		{"held repeat, k=4", 18, 4, 0, []byte{3, 3, 3, 3, 3, 3, 3, 3}, []byte{7, 6, 5, 4, 3, 2, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7}, 8, false, true},
	} {
		samples, ldv := decodeSelectRound(sd.scale, sd.loads, sd.picks)
		m := slices.Min(ldv)
		distinct := make(map[int]bool)
		for i, b := range samples {
			if ldv[i] == m {
				distinct[b] = true
			}
		}
		d := len(samples)
		if len(distinct) != sd.cohort || (slices.Max(ldv)-m >= 2*d+16) != sd.wide || int(sd.toPlace) >= d+2 {
			f.Fatalf("seed %q: cohort %d (want %d), spread %d vs window %d (want wide %v), toPlace %d of d %d",
				sd.name, len(distinct), sd.cohort, slices.Max(ldv)-m, 2*d+16, sd.wide, sd.toPlace, d)
		}
		if got := heldRepeatAfterFull(samples, ldv, sd.nonce, int(sd.toPlace)); got != sd.heldRepeat {
			f.Fatalf("seed %q: held repeat after the top-k is full: %v, want %v", sd.name, got, sd.heldRepeat)
		}
		f.Add(sd.nonce, sd.toPlace, sd.scale, sd.loads, sd.picks)
	}
	f.Fuzz(func(t *testing.T, nonce uint64, toPlace uint8, scale uint16, loads, picks []byte) {
		if len(loads) == 0 || len(picks) == 0 || len(picks) > 512 {
			return
		}
		samples, ldv := decodeSelectRound(scale, loads, picks)
		k := int(toPlace) % (len(samples) + 2)
		want := oracleSelect(samples, ldv, nonce, k)
		sc := newSelector(len(samples))
		for rep := 0; rep < 2; rep++ {
			if got := sc.probeAndRank(samples, ldv, nonce, k); !slices.Equal(got, want) {
				t.Fatalf("run %d, toPlace %d, samples %v, loads %v:\n got %v\nwant %v", rep, k, samples, ldv, got, want)
			}
		}
	})
}
