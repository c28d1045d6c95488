package core

// This file is the superstep round engine behind every fixed-prologue
// policy: rounds whose random-draw pattern is a constant FillIntn(d
// samples) followed by one nonce draw (KDChoice, fixed-σ SerializedKD,
// DChoice, DynamicKD) are pre-drawn in blocks of B rounds — one
// xrand.FillRounds bulk fill per block instead of 2B separate generator
// calls — and consumed one kdRound record at a time. Because the bulk fill
// performs exactly the serial draw sequence (samples then nonce, per round,
// in stream order), the block engine is bit-identical to per-round drawing
// by construction; pre-drawing only moves work earlier in time, never
// changes a word of the stream.
//
// B comes from Params.Block (0 auto-sizes to ~4096 samples per superstep),
// which amortizes the fixed per-round costs — generator state loads, Lemire
// threshold setup, call overhead — across the whole block. The consumer
// fills its block in place whenever it runs dry: zero copies, zero
// goroutines, and the generator is shared with the owning Process.
//
// Because a block holds every future round's samples up to its end, peek
// hands the KD round paths the next round's probe set while the current
// round is still running; above the 4 MiB gate the specialized kernels
// prefetch those bins' cache lines (prefetch.go). The last round of a
// block peeks nil: looking past it would mean drawing the next block early.
//
// Policies with data-dependent draw patterns (AdaptiveKD's reservoir ties,
// RandomSigma's shuffles, SAx0's rank draws, ...) cannot pre-draw rounds
// and draw from the generator directly. StaleBatch's round is a fixed
// pattern — one nonce, then one FillIntn of k·D samples — but not the
// d-samples-then-nonce kdRound record, so it does not use the block engine
// either.

import "repro/internal/xrand"

// kdRound is the consumer's view of one pre-drawn round, aliasing the
// engine's block; it is valid until the next next() call.
type kdRound struct {
	samples []int
	nonce   uint64
}

// kdBlock is one superstep of pre-drawn rounds in flat layout.
type kdBlock struct {
	samples []int    // rounds × d raw samples
	nonces  []uint64 // rounds
}

func newKDBlock(rounds, d int) *kdBlock {
	return &kdBlock{
		samples: make([]int, rounds*d),
		nonces:  make([]uint64, rounds),
	}
}

// roundEngine produces kdRound records ahead of the round loop.
type roundEngine struct {
	d      int
	rounds int // superstep size B

	// rng is shared with the owning Process (pr.rng stays valid for the
	// non-engine seams).
	rng *xrand.Rand
	n   int

	local *kdBlock // the current block
	idx   int
	cur   kdRound // scratch for next()'s return value
}

// blockEligible reports whether the policy/params combination has the
// fixed FillIntn-then-nonce round prologue the superstep engine pre-draws.
func blockEligible(policy Policy, p Params) bool {
	switch policy {
	case KDChoice, DChoice, DynamicKD, CoarseDChoice:
		return true
	case SerializedKD:
		// RandomSigma draws a shuffle after the nonce, so its rounds are
		// not a fixed prologue.
		return !p.RandomSigma
	default:
		return false
	}
}

// maxBlockSamples bounds Params.Block * D, the per-block sample buffer: a
// superstep past 2^24 samples (128 MB of ints) would fail as an opaque
// giant allocation instead of a config error, and is far beyond any
// amortization benefit (auto-sizing picks a few thousand samples).
const maxBlockSamples = 1 << 24

// blockRounds sizes a superstep: Params.Block when set, otherwise ~4096
// samples per block with a floor of 4 rounds.
func blockRounds(d, block int) int {
	if block > 0 {
		return block
	}
	r := 4096 / d
	if r < 4 {
		r = 4
	}
	return r
}

// shardBlockRounds sizes a sharded superstep: Params.Block when set,
// otherwise ~32768 samples per block with a floor of 32 rounds — wider than
// the serial auto block because the parallel decide phase amortizes worker
// hand-off per block, not per round. Deliberately independent of the worker
// count: the block boundary is part of the allocation law (it sets the
// staleness horizon), so auto-sizing by P would break the
// bit-identical-for-any-P guarantee.
func shardBlockRounds(d, block int) int {
	if block > 0 {
		return block
	}
	r := 32768 / d
	if r < 32 {
		r = 32
	}
	return r
}

// newRoundEngine starts the engine over blocks of `rounds` rounds, drawing
// lazily from rng (shared with the caller).
func newRoundEngine(rng *xrand.Rand, n, d, rounds int) *roundEngine {
	p := &roundEngine{
		d:      d,
		rounds: rounds,
		rng:    rng,
		n:      n,
		local:  newKDBlock(rounds, d),
	}
	p.idx = rounds // force a refill on the first next()
	return p
}

// next returns the next pre-drawn round. The returned record (and its
// samples slice) is valid until the following next call.
//
//kd:hotpath
func (p *roundEngine) next() *kdRound {
	if p.idx == p.rounds {
		p.advance()
	}
	i := p.idx
	p.idx++
	b := p.local
	p.cur.samples = b.samples[i*p.d : (i+1)*p.d]
	p.cur.nonce = b.nonces[i]
	return &p.cur
}

// peek returns the samples of the round the following next call will
// return, or nil when that call must refill the block first. The slice
// aliases the block and is valid until the next refill.
//
//kd:hotpath
func (p *roundEngine) peek() []int {
	if p.idx >= p.rounds {
		return nil
	}
	return p.local.samples[p.idx*p.d : (p.idx+1)*p.d]
}

// nextBlock refills and returns the whole local block at once. The sharded
// superstep engine (shard.go) consumes blocks wholesale — it decides every
// round of a block in one parallel phase — so it bypasses the per-round
// cursor; next() and nextBlock() must not be mixed on one engine. The
// returned block aliases the engine's buffers and is valid until the
// following nextBlock call.
func (p *roundEngine) nextBlock() *kdBlock {
	p.advance()
	p.idx = p.rounds // keep the per-round cursor poisoned (exhausted)
	return p.local
}

// advance refills the local block: per round, exactly FillIntn(samples,
// n) then one Uint64 nonce — the serial prologue — via the unrolled bulk
// fill.
func (p *roundEngine) advance() {
	p.rng.FillRounds(p.local.samples, p.local.nonces, p.d, p.n)
	p.idx = 0
}
