package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/loadvec"
	churn "repro/internal/workload"
	"repro/internal/xrand"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. parent is the index of the enclosing span, -1 for a root.
type span struct {
	name, parent int32
	start, end   int64
}

// tracer keeps spans in memory; write puts them on disk at exit.
type tracer struct {
	names []string
	ids   map[string]int32
	spans []span
}

func newTracer() *tracer { return &tracer{ids: map[string]int32{}} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32) int32 {
	id, ok := t.ids[name]
	if !ok {
		id = int32(len(t.names))
		t.ids[name] = id
		t.names = append(t.names, name)
	}
	t.spans = append(t.spans, span{name: id, parent: parent, start: now()})
	return int32(len(t.spans) - 1)
}

// end closes span i and returns its duration in ns.
func (t *tracer) end(i int32) float64 {
	s := &t.spans[i]
	s.end = now()
	return float64(s.end - s.start)
}

// write stores the spans as JSON lines after a header line with the run
// context.
func (t *tracer) write(path, header string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, header)
	for i, s := range t.spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, s.parent, t.names[s.name], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// harvest is the observer of the replica whose decisions the layer
// replays repeat: it records the bins every round (or insert) placed into,
// the samples it probed, and the bins deletes drained.
type harvest struct {
	pr      *core.Process
	placed  []int
	probes  []int
	drained []int
}

func (h *harvest) RoundPlaced(_ int, samples, placed, _ []int) {
	if h.pr.LastOp() == core.OpDelete {
		h.drained = append(h.drained, placed...)
		return
	}
	h.placed = append(h.placed, placed...)
	h.probes = append(h.probes, samples...)
}

func (h *harvest) reset() {
	h.placed, h.probes, h.drained = h.placed[:0], h.probes[:0], h.drained[:0]
}

// newProcess builds the core process the workload's allocator wraps: same
// policy, parameters and seeded generator, with Shards overridden.
func newProcess(w workload, seed uint64, shards int) (*core.Process, error) {
	pol, err := core.ParsePolicy(w.cfg.Policy.String())
	if err != nil {
		return nil, err
	}
	store, err := loadvec.ParseStoreKind(w.cfg.Store.String())
	if err != nil {
		return nil, err
	}
	c := w.cfg
	return core.New(pol, core.Params{N: c.Bins, K: c.K, D: c.D, Beta: c.Beta, Store: store, Block: c.Block, Shards: shards}, xrand.New(seed))
}

// newAllocator builds the workload's public allocator.
func newAllocator(w workload, seed uint64) (*kdchoice.Allocator, error) {
	cfg := w.cfg
	cfg.Seed = seed
	return kdchoice.New(cfg)
}

// filler replays the round prologue draws of the workload's generator
// through xrand.Rand.FillRounds: width samples then one nonce per round.
// StaleBatch draws its nonce before its k·d samples, so its filler draws
// one word up front and each FillRounds nonce is the next round's.
type filler struct {
	r       *xrand.Rand
	width   int
	n       int
	samples []int
	nonces  []uint64
}

func newFiller(w workload, seed uint64) *filler {
	f := &filler{r: xrand.New(seed), width: w.cfg.D, n: w.cfg.Bins}
	if w.cfg.Policy == kdchoice.StaleBatch {
		f.r.Uint64()
		f.width = w.cfg.K * w.cfg.D
	}
	f.samples = make([]int, w.traceChunk*f.width)
	f.nonces = make([]uint64, w.traceChunk)
	return f
}

// fill draws the next r rounds (r <= traceChunk) and returns their
// samples.
func (f *filler) fill(r int) []int {
	f.r.FillRounds(f.samples[:r*f.width], f.nonces[:r], f.width, f.n)
	return f.samples[:r*f.width]
}

// sink keeps gather results live.
var sink int

// gather reads the load of every probed bin through the store interface.
func gather(s loadvec.Store, bins []int) {
	sum := 0
	for _, b := range bins {
		sum += s.Load(b)
	}
	sink += sum
}

// reference runs the untraced loop on its own allocator for dur and
// returns ns per op (median chunk), allocations per op and GC cycles.
func reference(w workload, seed uint64, dur time.Duration, c *checker) (nsPerOp, allocsPerOp, gcs float64, err error) {
	s, err := runSession(w, seed, dur, 1, c)
	if err != nil {
		return 0, 0, 0, err
	}
	ops := float64(len(s.t.ns) * w.chunk)
	return median(s.t.ns) / float64(w.chunk), float64(s.allocs) / ops, float64(s.gcs), nil
}

// lockstep checks that replicas driven through the same calls agree.
func lockstep(c *checker, what string, ref loadReader, others ...loadReader) {
	for _, o := range others {
		if c.check(o.Balls() == ref.Balls() && o.MaxLoad() == ref.MaxLoad() && o.Messages() == ref.Messages() && o.Rounds() == ref.Rounds()) {
			c.note("%s: replicas diverged: balls %d/%d max %d/%d messages %d/%d", what, o.Balls(), ref.Balls(), o.MaxLoad(), ref.MaxLoad(), o.Messages(), ref.Messages())
		}
	}
}

// checkShadow checks that the replay store holds the allocator's loads.
func checkShadow(c *checker, shadow loadvec.Store, a *kdchoice.Allocator) {
	if c.check(shadow.Balls() == a.Balls() && shadow.MaxLoad() == a.MaxLoad()) {
		c.note("replay store: balls %d/%d max %d/%d", shadow.Balls(), a.Balls(), shadow.MaxLoad(), a.MaxLoad())
	}
}

// storeCounts returns the layer's memory counters for a process's store.
func storeCounts(pr *core.Process) (bytesPerBin, escaped float64) {
	s := pr.Store()
	if e, ok := s.(interface{ Escaped() int }); ok {
		escaped = float64(e.Escaped())
	}
	return s.BytesPerBin(), escaped
}

// traced runs the per-layer benchmark of one workload: an untraced
// reference segment for a quarter of dur, then lockstep replicas with a
// span around every layer call for the rest.
func traced(w workload, seed uint64, dur time.Duration, c *checker, tr *tracer) (map[string]float64, error) {
	refNs, allocs, gcs, err := reference(w, seed, dur/4, c)
	if err != nil {
		return nil, err
	}
	freeHeap()
	var m map[string]float64
	if w.kind == serve {
		m, err = traceServe(w, seed, dur-dur/4, c, tr, refNs)
	} else {
		m, err = traceRounds(w, seed, dur-dur/4, c, tr, refNs)
	}
	if err != nil {
		return nil, err
	}
	m["runtime.allocs_per_round"] = allocs
	m["runtime.allocs_per_op"] = allocs
	m["runtime.gc_cycles"] = gcs
	return m, nil
}

// traceRounds replays a round workload layer by layer. Per chunk of rounds:
// the observed replica O plays the rounds, the filler redraws their
// samples (xrand), the replay store reads every probe and adds every
// placed ball (loadvec), then the process P, the Shards=1 process P1 and
// the public allocator A each play the same rounds (core, kdchoice).
func traceRounds(w workload, seed uint64, dur time.Duration, c *checker, tr *tracer, refNs float64) (map[string]float64, error) {
	n, k, r := w.cfg.Bins, w.cfg.K, w.traceChunk
	o, err := newProcess(w, seed, w.cfg.Shards)
	if err != nil {
		return nil, err
	}
	h := &harvest{pr: o}
	o.SetObserver(h)
	p, err := newProcess(w, seed, w.cfg.Shards)
	if err != nil {
		return nil, err
	}
	p1, err := newProcess(w, seed, 1)
	if err != nil {
		return nil, err
	}
	a, err := newAllocator(w, seed)
	if err != nil {
		return nil, err
	}
	for _, x := range []interface{ Close() }{o, p, p1, a} {
		defer x.Close()
	}
	shadow, err := loadvec.NewStore(p.Store().Kind(), n)
	if err != nil {
		return nil, err
	}
	f := newFiller(w, seed)

	// Warm-up: the check run on every replica, a chunk at a time so that
	// the harvest never holds more than one chunk.
	warm := w.warmRounds
	if w.fullRuns {
		warm = n / k
	}
	for done := 0; done < warm; done += r {
		step := min(r, warm-done)
		for i := 0; i < step; i++ {
			o.Round()
			p.Round()
			p1.Round()
			a.Round()
		}
		checkSamples(c, w, f.fill(step), h)
		shadow.BulkAdd(h.placed)
		h.reset()
		c.ops(step)
	}
	lockstep(c, "warm-up", a, o, p, p1)
	verifyRun(w, a, nil, 0, c)
	checkShadow(c, shadow, a)
	m := map[string]float64{
		"core.probes": float64(p.Messages()),
		"core.rounds": float64(p.Rounds()),
	}
	reset := func() {
		o.Reset()
		p.Reset()
		p1.Reset()
		a.Reset()
		shadow.Reset()
	}
	if w.fullRuns {
		reset()
	}

	players := []struct {
		name string
		r    interface{ Round() }
		ns   float64
	}{{"core.Process.Round", p, 0}, {"core.Process.Round/shards=1", p1, 0}, {"kdchoice.Allocator.Round", a, 0}}
	var fillNs, gatherNs, applyNs, pNs, shardNs, wrapNs, aNs []float64
	deadline := now() + int64(dur)
	for now() < deadline {
		root := tr.begin("chunk", -1)
		s := tr.begin("replay.harvest", root)
		for i := 0; i < r; i++ {
			o.Round()
		}
		tr.end(s)
		s = tr.begin("xrand.Rand.FillRounds", root)
		samples := f.fill(r)
		fillNs = append(fillNs, tr.end(s))
		checkSamples(c, w, samples, h)
		s = tr.begin("loadvec.Store.Load", root)
		gather(shadow, samples)
		gatherNs = append(gatherNs, tr.end(s))
		s = tr.begin("loadvec.Store.BulkAdd", root)
		shadow.BulkAdd(h.placed)
		applyNs = append(applyNs, tr.end(s))
		// The three replicas take turns going first, so that none always
		// runs against the cache the replays left behind.
		for j := range players {
			pl := &players[(len(fillNs)+j)%len(players)]
			s = tr.begin(pl.name, root)
			for i := 0; i < r; i++ {
				pl.r.Round()
			}
			pl.ns = tr.end(s)
		}
		pn, p1n, an := players[0].ns, players[1].ns, players[2].ns
		tr.end(root)
		c.ops(r)
		h.reset()
		pNs = append(pNs, pn)
		shardNs = append(shardNs, pn-p1n)
		wrapNs = append(wrapNs, an-pn)
		aNs = append(aNs, an)
		if a.Balls() >= n {
			lockstep(c, "full run", a, o, p, p1)
			verifyRun(w, a, nil, 0, c)
			checkShadow(c, shadow, a)
			reset()
		}
	}
	lockstep(c, "end", a, o, p, p1)
	verifyRun(w, a, nil, 0, c)
	checkShadow(c, shadow, a)

	width := float64(f.width)
	rf := float64(r)
	fill := median(fillNs) / (rf * width)
	gath := median(gatherNs) / (rf * width)
	apply := median(applyNs) / (rf * float64(k))
	round := median(pNs) / rf
	m["xrand.fill_ns_per_sample"] = fill
	m["loadvec.gather_ns_per_probe"] = gath
	m["loadvec.apply_ns_per_ball"] = apply
	m["core.round_ns"] = round
	m["core.select_ns_per_round"] = round - fill*width - gath*width - apply*float64(k)
	m["core.shard_overhead_ns_per_round"] = median(shardNs) / rf
	m["kdchoice.wrap_ns_per_round"] = median(wrapNs) / rf
	m["trace_overhead_frac"] = median(aNs)/rf/refNs - 1
	m["loadvec.bytes_per_bin"], m["loadvec.escaped_bins"] = storeCounts(p)
	return m, nil
}

// checkSamples checks that the filler redrew exactly the samples the
// observed replica probed: the kd observer sees every round's samples;
// StaleBatch's sees only the placements, each of which must be one of its
// ball's own probes.
func checkSamples(c *checker, w workload, samples []int, h *harvest) {
	if len(h.probes) > 0 {
		ok := len(h.probes) == len(samples)
		for i := 0; ok && i < len(h.probes); i++ {
			ok = h.probes[i] == samples[i]
		}
		if c.check(ok) {
			c.note("filler samples differ from the replica's probes")
		}
		return
	}
	d := w.cfg.D
	ok := len(h.placed)*d == len(samples)
	for b := 0; ok && b < len(h.placed); b++ {
		ok = false
		for _, s := range samples[b*d : (b+1)*d] {
			ok = ok || s == h.placed[b]
		}
	}
	if c.check(ok) {
		c.note("StaleBatch placement outside its ball's redrawn probes")
	}
}

// timedClient applies ops one by one, summing ns per kind.
func timedApply(cl *client, ops []churn.Op, c *checker) (insNs, delNs float64, ins, dels int) {
	for _, op := range ops {
		t0 := now()
		err := cl.apply(op)
		dt := float64(now() - t0)
		if err != nil {
			c.fail("operation failed: %v", err)
		}
		if op.Kind == churn.OpInsert {
			insNs += dt
			ins++
		} else {
			delNs += dt
			dels++
		}
	}
	return insNs, delNs, ins, dels
}

// traceServe replays the serve workload layer by layer. Per block the
// churn stream is generated (workload); per chunk of ops the observed
// replica O serves the ops, the replay store reads the inserts' probes,
// adds their balls and subtracts the deletes' (loadvec), then the process P
// and the public allocator A serve the same ops with each op timed (core,
// kdchoice).
func traceServe(w workload, seed uint64, dur time.Duration, c *checker, tr *tracer, refNs float64) (map[string]float64, error) {
	n, r := w.cfg.Bins, w.traceChunk
	o, err := newProcess(w, seed, w.cfg.Shards)
	if err != nil {
		return nil, err
	}
	h := &harvest{pr: o}
	o.SetObserver(h)
	p, err := newProcess(w, seed, w.cfg.Shards)
	if err != nil {
		return nil, err
	}
	a, err := newAllocator(w, seed)
	if err != nil {
		return nil, err
	}
	for _, x := range []interface{ Close() }{o, p, a} {
		defer x.Close()
	}
	shadow, err := loadvec.NewStore(p.Store().Kind(), n)
	if err != nil {
		return nil, err
	}
	stream, err := newChurn(w, seed)
	if err != nil {
		return nil, err
	}
	clients := []*client{newClient(o, n), newClient(p, n), newClient(a, n)}
	ops := make([]churn.Op, max(w.checkOps, genBlock))
	generate(stream, ops[:w.checkOps])
	for _, cl := range clients {
		cl.fill(n, c)
		for _, op := range ops[:w.checkOps] {
			c.op(cl.apply(op))
		}
	}
	shadow.BulkAdd(h.placed)
	for _, b := range h.drained {
		shadow.Sub(b, 1)
	}
	h.reset()
	co, cp, ca := clients[0], clients[1], clients[2]
	lockstep(c, "warm-up", a, o, p)
	checkShadow(c, shadow, a)
	verifyRun(w, a, ca, stream.Live(), c)
	m := map[string]float64{
		"core.probes": float64(p.Messages()),
		"core.rounds": float64(p.Rounds()),
	}

	clock := clockOverhead()
	var genNs, gatherNs, applyNs, subNs, insNs, delNs, wrapNs, aNs []float64
	ops = ops[:genBlock]
	deadline := now() + int64(dur)
	for now() < deadline {
		s := tr.begin("churn.Stream.Next", -1)
		generate(stream, ops)
		genNs = append(genNs, tr.end(s)/genBlock)
		for lo := 0; lo < len(ops); lo += r {
			chunk := ops[lo : lo+r]
			root := tr.begin("chunk", -1)
			s = tr.begin("replay.harvest", root)
			for _, op := range chunk {
				if err := co.apply(op); err != nil {
					c.fail("operation failed: %v", err)
				}
			}
			tr.end(s)
			s = tr.begin("loadvec.Store.Load", root)
			gather(shadow, h.probes)
			gatherNs = append(gatherNs, tr.end(s)/float64(max(len(h.probes), 1)))
			s = tr.begin("loadvec.Store.BulkAdd", root)
			shadow.BulkAdd(h.placed)
			applyNs = append(applyNs, tr.end(s)/float64(max(len(h.placed), 1)))
			s = tr.begin("loadvec.Store.Sub", root)
			for _, b := range h.drained {
				shadow.Sub(b, 1)
			}
			subNs = append(subNs, tr.end(s)/float64(max(len(h.drained), 1)))
			h.reset()
			// P and A take turns going first.
			var pi, pd, ai, ad, an float64
			var ni, nd int
			for j := 0; j < 2; j++ {
				if (len(aNs)+j)%2 == 0 {
					s = tr.begin("core.Process.Insert/Delete", root)
					pi, pd, ni, nd = timedApply(cp, chunk, c)
					tr.end(s)
				} else {
					s = tr.begin("kdchoice.Allocator.Insert/Delete", root)
					ai, ad, _, _ = timedApply(ca, chunk, c)
					an = tr.end(s)
				}
			}
			aNs = append(aNs, an)
			tr.end(root)
			c.ops(r)
			if ni > 0 {
				insNs = append(insNs, pi/float64(ni)-clock)
			}
			if nd > 0 {
				delNs = append(delNs, pd/float64(nd)-clock)
			}
			wrapNs = append(wrapNs, (ai+ad-pi-pd)/float64(r))
		}
	}
	lockstep(c, "end", a, o, p)
	checkShadow(c, shadow, a)
	verifyRun(w, a, ca, stream.Live(), c)

	m["loadvec.gather_ns_per_probe"] = median(gatherNs)
	m["loadvec.apply_ns_per_ball"] = median(applyNs)
	m["loadvec.sub_ns_per_op"] = median(subNs)
	m["core.insert_ns"] = median(insNs)
	m["core.delete_ns"] = median(delNs)
	m["kdchoice.wrap_ns_per_round"] = median(wrapNs)
	m["workload.gen_ns_per_op"] = median(genNs)
	m["trace_overhead_frac"] = median(aNs)/float64(r)/refNs - 1
	m["loadvec.bytes_per_bin"], m["loadvec.escaped_bins"] = storeCounts(p)
	return m, nil
}
