package core

// StaleBatch is the parallel-allocation counterpoint to (k,d)-choice: the
// k balls of a round probe INDEPENDENTLY (PerBallD probes each) and every
// ball commits to the least loaded of its own probes as of the START of
// the round — no information is shared between the balls, and loads update
// only after all k have decided. This is the round-synchronous model of
// the parallel balanced-allocation literature the paper contrasts with
// (Adler et al., Stemann; the paper's references [1, 16]): collisions are
// possible, and the paper's point is precisely that sharing one probe
// batch across the k balls avoids them.
//
// Message cost is k·PerBallD per round; to compare against A(k,d) at equal
// budget choose PerBallD = d/k.
//
// A round runs serially in four steps: draw the nonce and all k·D samples
// (one FillIntn, the same word stream as per-ball fills), gather every
// sample's round-start load into a snapshot in one pass, take each ball's
// argmin over its own snapshot cells, and apply the placements in ball
// order. Gathering the whole snapshot before deciding lets the round's
// independent load reads be in flight together, which is what makes the
// serial round faster than fanning the decisions out over a worker pool.
// StaleBatch accepts any Params.Shards and always runs this round, so its
// results and its speed are independent of the shard count.

// roundStaleBatch places toPlace balls, each with its own perBall probes
// judged against the stale round-start loads, then commits the decisions in
// ball order (the round-synchronous update). Unobserved rounds use the
// store-specific batch increment (dests is already the plain bin list
// BulkAdd wants); observed rounds record per-ball heights.
func (pr *Process) roundStaleBatch(toPlace int) {
	perBall := pr.p.D
	nonce := pr.rng.Uint64()
	samples := pr.staleSamples[:toPlace*perBall]
	ldv := pr.staleLdv[:len(samples)]
	dests := pr.cands[:toPlace]
	pr.rng.FillIntn(samples, pr.n)
	pr.kern.shardGather(samples, ldv, 0, pr.n)
	for b := range dests {
		lo, hi := b*perBall, (b+1)*perBall
		dests[b] = argminLdv(samples[lo:hi], ldv[lo:hi], nonce, b, 1)
	}
	placed, heights := pr.beginObs(toPlace)
	if placed == nil {
		pr.kern.bulkAdd(dests)
		pr.balls += toPlace
	} else {
		for i, dst := range dests {
			placed[i] = dst
			heights[i] = pr.place(dst)
		}
	}
	pr.messages += int64(toPlace) * int64(perBall)
	pr.notify(nil, placed, heights)
}
