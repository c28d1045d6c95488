package main

import (
	"fmt"

	"repro"
)

// checker counts operations and output checks against the number
// attempted. Every failure is kept as a note so a failed run says why.
type checker struct {
	attempted, failed int
	notes             []string
}

// op records one caller operation and its error.
func (c *checker) op(err error) {
	c.attempted++
	if err != nil {
		c.fail("operation failed: %v", err)
	}
}

// ops records n operations that cannot fail (Round returns no error).
func (c *checker) ops(n int) { c.attempted += n }

// check records one output check and reports whether it failed; callers
// write the note only then, so a passing check allocates nothing.
func (c *checker) check(ok bool) (failed bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
	return !ok
}

// fail records one failure that no check counted yet.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	c.note(format, args...)
}

// note explains the last failure.
func (c *checker) note(format string, args ...any) {
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// outcome is what one run produced: the allocation law's observables and a
// hash of the full load vector.
type outcome struct {
	n, balls, rounds int
	messages         int64
	maxLoad          int // as the allocator reports it
	scanMax          int // as the load vector shows it
	loadSum          int
	hash             uint64
}

// loadReader is the read side of an allocator the checker needs.
type loadReader interface {
	N() int
	Balls() int
	Rounds() int
	Messages() int64
	MaxLoad() int
	Load(bin int) int
}

// observe scans the whole load vector of r.
func observe(r loadReader) outcome {
	o := outcome{
		n:        r.N(),
		balls:    r.Balls(),
		rounds:   r.Rounds(),
		messages: r.Messages(),
		maxLoad:  r.MaxLoad(),
		hash:     14695981039346656037,
	}
	for b := 0; b < o.n; b++ {
		l := r.Load(b)
		o.loadSum += l
		if l > o.scanMax {
			o.scanMax = l
		}
		o.hash = (o.hash ^ uint64(l)) * 1099511628211
	}
	return o
}

// wantMessages returns the policy's probe identity for a run that placed
// balls in rounds (inserts, for the per-ball serving policy): d per round
// for KDChoice, k·d per round for StaleBatch, d per insert for
// OnePlusBeta with β = 1.
func wantMessages(cfg kdchoice.Config, balls, rounds int) int64 {
	switch cfg.Policy {
	case kdchoice.StaleBatch:
		return int64(cfg.K) * int64(cfg.D) * int64(rounds)
	case kdchoice.OnePlusBeta:
		return kdchoice.MessageCost(1, cfg.D, balls)
	default:
		return int64(cfg.D) * int64(rounds)
	}
}

// verify checks one outcome of a workload. msgs is the expected message
// count (wantMessages); theory, when positive, is the Theorem 1 bound the
// maximum load may not exceed.
func (c *checker) verify(o outcome, msgs int64, theory float64) {
	if c.check(o.loadSum == o.balls) {
		c.note("sum of loads %d != balls %d", o.loadSum, o.balls)
	}
	if c.check(o.messages == msgs) {
		c.note("messages %d != probe identity %d", o.messages, msgs)
	}
	if c.check(o.maxLoad == o.scanMax) {
		c.note("MaxLoad %d != scanned maximum %d", o.maxLoad, o.scanMax)
	}
	floor := (o.balls + o.n - 1) / o.n
	if c.check(o.maxLoad >= floor) {
		c.note("MaxLoad %d < ceil(balls/n) = %d", o.maxLoad, floor)
	}
	if theory > 0 {
		if c.check(float64(o.maxLoad) <= theory) {
			c.note("MaxLoad %d above the Theorem 1 bound %.3f", o.maxLoad, theory)
		}
	}
}

// same checks that two runs from one seed agree exactly.
func (c *checker) same(a, b outcome) {
	if c.check(a.maxLoad == b.maxLoad && a.messages == b.messages && a.hash == b.hash) {
		c.note("same seed, different runs: max %d/%d messages %d/%d hash %x/%x",
			a.maxLoad, b.maxLoad, a.messages, b.messages, a.hash, b.hash)
	}
}

// theoryBound returns PredictMaxLoad(k,d,n) plus the workload's additive
// slack for Theorem 1's O(1) term, or 0 when the workload has none.
func theoryBound(w workload) float64 {
	if w.slack == 0 {
		return 0
	}
	return kdchoice.PredictMaxLoad(w.cfg.K, w.cfg.D, w.cfg.Bins) + w.slack
}
