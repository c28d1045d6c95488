package core

import "sort"

// This file is the round engine's selection kernel: given the d samples of a
// round it materializes the conceptual slots (the i-th sample of bin b has
// height load(b)+i) and returns the toPlace slots of minimum height, ranked
// by (height, tie, bin) ascending, with ties between bins at equal height
// broken uniformly at random.
//
// Two implementations exist:
//
//   - the counting kernel, the default: O(d + k log k) expected. The
//     store-specialized gather in kernel.go reads each sample's load
//     through a devirtualized store access and returns their minimum, and
//     rankAtMin below picks the slots from those loads alone: for k <= 4
//     from the samples at the round's minimum load when they name k
//     distinct bins (the common case when k << d), through a top-k kept
//     sorted by insertion in two fixed arrays, else by grouping the
//     samples in an epoch-stamped table and letting rankFromSlots count
//     heights over the round's dense height window, deriving random tie
//     keys lazily — only for slots at or below the boundary height — via a
//     keyed hash of (bin, height) under a per-round nonce.
//   - the reference kernel (Params.referenceSelect, set only by this
//     package's tests and benchmarks): the original sort-everything path,
//     kept as the oracle the fast kernel is tested against.
//
// Both kernels consume the random stream identically (d sample draws plus
// one nonce draw per round) and order slots by the same total order, so for
// a fixed seed they select bitwise-identical slot sets — the property
// TestFastSelectMatchesReference checks exhaustively. A keyed hash instead
// of one rng.Uint64 per slot is what makes this possible: tie keys are a
// pure function of (nonce, bin, height), so computing them lazily does not
// perturb the stream.

// tieKey derives the uniform tie-break key of the slot (bin, height) under
// the round nonce. Distinct slots of one round hash distinct (bin, height)
// pairs, so within a tied cohort (equal height, distinct bins) the keys are
// independent uniform lottery tickets, exactly as in ballDChoice.
//
//kd:hotpath
func tieKey(nonce uint64, bin, height int) uint64 {
	return mix64(nonce ^ uint64(bin)*0x9e3779b97f4a7c15 ^ uint64(height)*0xda942042e4dd58b5)
}

// rankSelect draws the round nonce and ranks the current pr.samples. The
// returned slice aliases process scratch and is valid until the next round.
// The engine round paths skip this and call rankSelectWith on their
// pre-drawn nonce.
func (pr *Process) rankSelect(toPlace int) []slot {
	return pr.rankSelectWith(pr.rng.Uint64(), toPlace)
}

// rankSelectWith is rankSelect with the nonce already materialized — either
// by rankSelect itself or by the superstep engine.
//
//kd:hotpath
func (pr *Process) rankSelectWith(nonce uint64, toPlace int) []slot {
	if pr.p.referenceSelect {
		pr.makeSlots(nonce)
		sortSlots(pr.slots)
		if toPlace > len(pr.slots) {
			toPlace = len(pr.slots)
		}
		return pr.slots[:toPlace]
	}
	return pr.kern.fastSelect(pr, nonce, toPlace)
}

// selector owns the scratch of the store-free counting selection kernel:
// the epoch-stamped group table and the height histogram of the counting
// path, and the slot buffers (sc.slots also holds the compacted min-load
// cohort of the small-k pass, whose running top-k lives in local arrays).
// It is one DECISION LANE — a serial process owns exactly one, and every
// worker of the sharded superstep engine owns its own, so concurrent
// per-round selections never share mutable state. The selector reads only
// its arguments (samples, pre-gathered loads, the round nonce), never the
// store, which is what lets the sharded decide phase run over a frozen load
// snapshot.
type selector struct {
	gtab  *groupTab
	hist  []int32
	slots []slot
	sel   []slot
	bnd   []slot
}

// newSelector sizes a selection lane for rounds of d samples.
func newSelector(d int) *selector {
	return &selector{
		gtab: newGroupTab(d),
		// The counting window covers every height pattern whose sampled
		// loads span less than ~2d; wider spreads (extreme imbalance) fall
		// back to the reference sort inside the counting kernel.
		hist:  make([]int32, 2*d+16),
		slots: make([]slot, d),
		sel:   make([]slot, 0, d),
		bnd:   make([]slot, 0, d),
	}
}

// probeAndRank is rankAtMin for callers whose gather did not track the
// minimum load (kernIface, the sketch kernel, the sharded decide phase): it
// finds m over ldv first.
//
//kd:hotpath
func (sc *selector) probeAndRank(samples, ldv []int, nonce uint64, toPlace int) []slot {
	ldv = ldv[:len(samples)]
	m := ldv[0]
	for _, v := range ldv {
		m = min(m, v)
	}
	return sc.rankAtMin(samples, ldv, m, nonce, toPlace)
}

// rankAtMin is the store-free heart of the counting kernel, shared by every
// kernel instantiation and every shard worker; ldv holds each sample's load
// and m is their minimum. For toPlace <= 4 it first runs the min-load
// cohort pass: a bin at load m owns a slot at height m+1 and every other
// slot sits at m+2 or above, so if the samples at load m name at least
// toPlace distinct bins the winners are the toPlace smallest (tie, bin)
// among them. A branch-free compaction finds that cohort; a running top-k
// kept sorted by insertion in two fixed (tie, bin) arrays scans it. At one
// height the tie key is a bijection of the bin (mix64 and the odd
// multiplier are invertible), so tie order is the (tie, bin) order and an
// equal tie is the same bin: once the top-k is full, one compare against
// the last entry rejects a sample, including a repeat of the worst held
// bin. Only a sample about to be inserted is checked against the other held
// bins (a repeat's slot is the held one). A smaller cohort falls through to
// the counting path, the only user of the group table: one scan
// materializes every slot (the i-th sample of bin b has height load(b)+i;
// the table counts multiplicity, ldv gives the load) and rankFromSlots
// ranks them. The (height, tie, bin) order is strict, so both paths select
// bit-identical slots.
//
//kd:hotpath
func (sc *selector) rankAtMin(samples, ldv []int, m int, nonce uint64, toPlace int) []slot {
	ldv = ldv[:len(samples)]
	if toPlace > 0 && toPlace <= 4 {
		coh := sc.slots[:len(samples)] // the counting path overwrites it
		nc := 0
		for i, v := range ldv {
			coh[nc].bin = samples[i]
			nc += int((uint(v-m) - 1) >> 63) // 1 iff v == m (v >= m)
		}
		// bkey hoists the height term of tieKey at the cohort height m+1.
		bkey := nonce ^ uint64(m+1)*0xda942042e4dd58b5
		var ties [4]uint64
		var bins [4]int
		n, last := 0, toPlace-1
	cohort:
		for _, c := range coh[:nc] {
			b := c.bin
			t := mix64(bkey ^ uint64(b)*0x9e3779b97f4a7c15)
			j := n // the entry the insertion overwrites
			if n == toPlace {
				if t >= ties[last] {
					continue
				}
				j = last
			}
			for _, h := range bins[:j] {
				if h == b {
					continue cohort
				}
			}
			if n < toPlace {
				n++
			}
			topInsert(&ties, &bins, j, t, b)
		}
		if n == toPlace {
			sel := sc.sel[:n]
			for i := range sel {
				sel[i] = slot{bin: bins[i], height: m + 1, tie: ties[i]}
			}
			sc.sel = sel
			return sel
		}
	}

	gt := sc.gtab
	epoch := gt.nextEpoch()
	tab := gt.tab
	stamp := gt.stamp[:len(tab)] // same power-of-two size; ties the lengths for the prover
	mask := len(tab) - 1
	slots := sc.slots[:len(samples)]
	minH := int(^uint(0) >> 1)
	maxH := 0
	for i, b := range samples {
		key := uint64(b+1) << 32
		h := int((uint64(uint32(b)) * 0x9e3779b97f4a7c15) >> 32)
		var ht int
		for {
			// Indexing through h&mask lets the compiler drop the bounds
			// checks: mask is len-1 of both power-of-two-sized arrays.
			if stamp[h&mask] != epoch {
				// First occurrence of b this round: claim a table slot.
				stamp[h&mask] = epoch
				tab[h&mask] = key | 1
				ht = ldv[i] + 1
				if ht < minH {
					minH = ht
				}
				break
			}
			if e := tab[h&mask]; e&^0xffffffff == key {
				// Repeat sample: the next conceptual ball of b sits its
				// multiplicity above the bin's load.
				c := int(uint32(e)) + 1
				tab[h&mask] = e + 1
				ht = ldv[i] + c
				break
			}
			h++
		}
		if ht > maxH {
			maxH = ht
		}
		slots[i] = slot{bin: b, height: ht}
	}
	sc.slots = slots
	return sc.rankFromSlots(nonce, toPlace, minH, maxH)
}

// rankFromSlots is the ranking tail of the counting kernel: sc.slots holds
// the round's materialized slots with heights spanning [minH, maxH]; the
// toPlace minimum slots are returned ranked ascending. In the steady-state
// common case every slot sits at one height (minH == maxH) and the
// boundary is known without touching the histogram at all.
//
//kd:hotpath
func (sc *selector) rankFromSlots(nonce uint64, toPlace, minH, maxH int) []slot {
	slots := sc.slots
	if toPlace > len(slots) {
		toPlace = len(slots)
	}
	if toPlace == 0 {
		return slots[:0]
	}

	boundary, need := minH, toPlace
	if maxH != minH {
		hist := sc.hist
		if maxH-minH >= len(hist) {
			// Sparse heights (sampled loads spread wider than the counting
			// window, only possible under extreme imbalance): fall back to
			// the reference full sort. Same comparator and keys, so the
			// selected set is identical to what the counting path would
			// pick.
			for i := range slots {
				slots[i].tie = tieKey(nonce, slots[i].bin, slots[i].height)
			}
			sortSlots(slots)
			return slots[:toPlace]
		}

		// Count slots per height and locate the boundary: the height of
		// the toPlace-th smallest slot.
		for i := range slots {
			hist[slots[i].height-minH]++
		}
		below := 0 // slots strictly below the boundary height
		off := 0
		for {
			c := int(hist[off])
			if below+c >= toPlace {
				break
			}
			below += c
			off++
		}
		boundary = minH + off
		need = toPlace - below // slots to take at the boundary height
		for i := 0; i <= maxH-minH; i++ {
			hist[i] = 0
		}
	}

	// Gather: everything below the boundary is selected outright; the
	// boundary cohort is genuinely tied, so only now are tie keys derived.
	// For need <= 4 the cohort feeds the same sorted-insertion top-k as the
	// min-load pass; its slots are distinct bins (a bin's slots sit at
	// distinct heights), so it needs no repeat check. Larger cohorts are
	// gathered and quickselected.
	// bkey hoists the height term of the boundary cohort's tie keys: every
	// cohort member shares the boundary height, so its key reduces to one
	// multiply and the mixer. Identical arithmetic to tieKey.
	bkey := nonce ^ uint64(boundary)*0xda942042e4dd58b5
	sel := sc.sel[:0]
	bnd := sc.bnd[:0]
	if need <= 4 {
		var ties [4]uint64
		var bins [4]int
		n, last := 0, need-1
		for i := range slots {
			s := slots[i]
			if s.height > boundary {
				continue
			}
			if s.height < boundary {
				s.tie = tieKey(nonce, s.bin, s.height)
				sel = append(sel, s)
				continue
			}
			t := mix64(bkey ^ uint64(s.bin)*0x9e3779b97f4a7c15)
			j := n
			if n == need {
				if t >= ties[last] {
					continue
				}
				j = last
			} else {
				n++
			}
			topInsert(&ties, &bins, j, t, s.bin)
		}
		for i := 0; i < need; i++ {
			sel = append(sel, slot{bin: bins[i], height: boundary, tie: ties[i]})
		}
	} else {
		for i := range slots {
			s := slots[i]
			if s.height > boundary {
				continue
			}
			if s.height < boundary {
				s.tie = tieKey(nonce, s.bin, s.height)
				sel = append(sel, s)
			} else {
				s.tie = mix64(bkey ^ uint64(s.bin)*0x9e3779b97f4a7c15)
				bnd = append(bnd, s)
			}
		}
		if need < len(bnd) {
			selectSmallestSlots(bnd, need)
		}
		sel = append(sel, bnd[:need]...)
	}
	sc.bnd = bnd

	// Rank the k selected slots so SerializedKD sees a total order of
	// ranks; k is small, so this costs O(k log k) at worst.
	sortSlots(sel)
	sc.sel = sel
	return sel
}

// topInsert places (t, b) into the running top-k arrays, kept ascending by
// tie key: entry j (the free entry, or the worst one being evicted) is
// overwritten after every entry with a larger key above it shifts one place
// toward the end.
//
//kd:hotpath
func topInsert(ties *[4]uint64, bins *[4]int, j int, t uint64, b int) {
	for ; j > 0 && t < ties[j-1]; j-- {
		ties[j], bins[j] = ties[j-1], bins[j-1]
	}
	ties[j], bins[j] = t, b
}

// selectSmallestSlots partially sorts s so that s[:k] holds its k smallest
// elements under the slot total order, by expected-O(len) quickselect. The
// caller sorts the final selection, so only the SET matters.
//
//kd:hotpath
func selectSmallestSlots(s []slot, k int) {
	for k > 0 && k < len(s) && len(s) > 12 {
		p := partitionSlots(s)
		switch {
		case k <= p:
			s = s[:p]
		case k == p+1:
			return // s[:p+1] is exactly the k smallest
		default:
			s = s[p+1:]
			k -= p + 1
		}
	}
	if k <= 0 {
		return
	}
	// The residual segment is short; insertion sort finishes the job.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && slotLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// makeSlots materializes the round's slots (heights and tie-break keys)
// from the current pr.samples for the reference kernel. Sorting groups
// duplicate samples so heights can be assigned; the sort works on a scratch
// copy so pr.samples keeps the draw order observers are promised.
func (pr *Process) makeSlots(nonce uint64) {
	d := pr.p.D
	sorted := pr.sortBuf[:d]
	copy(sorted, pr.samples)
	sort.Ints(sorted)
	slots := pr.slots[:0]
	for i := 0; i < d; {
		b := sorted[i]
		j := i
		for j < d && sorted[j] == b {
			j++
		}
		load := pr.store.Load(b)
		for c := 1; c <= j-i; c++ {
			slots = append(slots, slot{bin: b, height: load + c, tie: tieKey(nonce, b, load+c)})
		}
		i = j
	}
	pr.slots = slots
}

// sortSlots orders slots by (height, tie, bin) ascending. Hand-rolled
// hybrid quicksort/insertion sort: zero allocations and no interface calls
// on the hot path.
//
//kd:hotpath
func sortSlots(s []slot) {
	for len(s) > 12 {
		p := partitionSlots(s)
		if p < len(s)-p-1 {
			sortSlots(s[:p])
			s = s[p+1:]
		} else {
			sortSlots(s[p+1:])
			s = s[:p]
		}
	}
	// Insertion sort for short (sub)slices.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && slotLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// slotLess is the slot total order: height, then tie key, then bin id. The
// bin fallback makes the order deterministic even under (astronomically
// rare) tie-key collisions, which keeps the fast and reference kernels
// bitwise-coupled.
//
//kd:hotpath
func slotLess(a, b slot) bool {
	if a.height != b.height {
		return a.height < b.height
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.bin < b.bin
}

// partitionSlots performs Hoare-style partition around a median-of-three
// pivot and returns the pivot's final index.
//
//kd:hotpath
func partitionSlots(s []slot) int {
	mid := len(s) / 2
	hi := len(s) - 1
	// Median of three to s[0].
	if slotLess(s[mid], s[0]) {
		s[mid], s[0] = s[0], s[mid]
	}
	if slotLess(s[hi], s[0]) {
		s[hi], s[0] = s[0], s[hi]
	}
	if slotLess(s[hi], s[mid]) {
		s[hi], s[mid] = s[mid], s[hi]
	}
	pivot := s[mid]
	s[mid], s[hi-1] = s[hi-1], s[mid]
	i, j := 0, hi-1
	for {
		i++
		for slotLess(s[i], pivot) {
			i++
		}
		j--
		for slotLess(pivot, s[j]) {
			j--
		}
		if i >= j {
			break
		}
		s[i], s[j] = s[j], s[i]
	}
	s[i], s[hi-1] = s[hi-1], s[i]
	return i
}
