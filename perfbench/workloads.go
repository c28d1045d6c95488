package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro"
	churn "repro/internal/workload"
	"repro/internal/xrand"
)

// kind says how a workload drives its allocator.
type kind int

const (
	// rounds: Round calls in fixed-size chunks (the paper's n-into-n run).
	rounds kind = iota
	// serve: Insert/Delete replay of a pre-generated churn stream.
	serve
)

// workload is one benchmark input shape. Every workload is a closed loop
// with one caller: the next call is issued when the previous one returns.
type workload struct {
	name, why string
	cfg       kdchoice.Config // Seed is set per run
	kind      kind
	// fullRuns makes the warm-up (and check run) one complete n-into-n run;
	// otherwise it is the first warmRounds rounds of the run the timed loop
	// continues. Either way, a run that reaches n balls is checked and Reset.
	fullRuns   bool
	warmRounds int
	// chunk is the number of Round calls (or stream ops) per timed sample,
	// and traceChunk the same for the traced run, whose spans cover more.
	// A chunk short against the host's scheduling stalls keeps the stalls
	// out of most samples.
	chunk, traceChunk int
	// checkOps is the number of churn ops the serve check run replays after
	// filling the bins with n balls.
	checkOps int
	// slack is the additive allowance over PredictMaxLoad for Theorem 1's
	// O(1) term (0: no theorem check).
	slack float64
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median and the reps double as the same-seed determinism check. setup_s
// is process CPU time: on a shared VM the wall time of a 0.1 s set-up
// swings 2-3x with the host's CPU throttling, which CPU time leaves out.
const setupReps = 7

// maxLoadPoints is how many checkpoints max_load averages besides the
// check run: completed n-into-n runs, or chunks of the one prefix run, or
// generation blocks of the churn stream. Each is a deterministic function
// of the seed, and the mean is steadier across seeds than any one of them.
const maxLoadPoints = 32

// genBlock is how many churn ops are pre-generated between timed chunks.
const genBlock = 16384

// churnStream is the stream id of the churn generator, split from the seed
// so that it never shares draws with the allocator.
const churnStream = 0x6368726e

var workloads = []workload{
	{
		name:       "kd-cache",
		why:        "Paper n-into-n (2,64)-choice with 800 KB of dense loads in L2: fill and slot selection dominate; predicts xrand.fill and core.select move balls_per_s, gather does not",
		cfg:        kdchoice.Config{Bins: 100000, K: 2, D: 64, Policy: kdchoice.KDChoice, Store: kdchoice.StoreDense},
		kind:       rounds,
		fullRuns:   true,
		chunk:      25,
		traceChunk: 250,
		slack:      2,
	},
	{
		name:       "kd-dram",
		why:        "Same (k,d) at n=1e8 on a 50 MB nibble store whose pages set-up writes: the probe gather leaves cache; predicts loadvec.gather and bytes_per_bin move here, not on kd-cache",
		cfg:        kdchoice.Config{Bins: 100000000, K: 2, D: 64, Policy: kdchoice.KDChoice, Store: kdchoice.StoreNibble},
		kind:       rounds,
		warmRounds: 1 << 17,
		chunk:      25,
		traceChunk: 250,
		slack:      2,
	},
	{
		name:       "serve-churn",
		why:        "Online (1+beta) beta=1 d=2 Insert/Delete under churn on the hist store: Sub beside reads, no round engine; predicts core.insert/delete and loadvec.sub move ops_per_s, fill does not",
		cfg:        kdchoice.Config{Bins: 50000, D: 2, Policy: kdchoice.OnePlusBeta, Beta: 1, Store: kdchoice.StoreHist},
		kind:       serve,
		chunk:      512,
		traceChunk: 1024,
		checkOps:   400000,
	},
	{
		name:       "stale-batch",
		why:        "StaleBatch k=8 d=2 with Shards auto, the only sharded-superstep workload; predicts core.shard_overhead and loadvec.apply move balls_per_s here, not on the serial kd workloads",
		cfg:        kdchoice.Config{Bins: 100000, K: 8, D: 2, Policy: kdchoice.StaleBatch},
		kind:       rounds,
		fullRuns:   true,
		chunk:      25,
		traceChunk: 250,
	},
}

// lookup returns the named workload.
func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v, all)", name, names)
}

// tiny returns the workload shrunk to test size, keeping its policy, store
// and (k,d).
func (w workload) tiny() workload {
	w.cfg.Bins = 2000
	if w.name == "kd-dram" {
		w.cfg.Bins = 20000
	}
	w.warmRounds = min(w.warmRounds, 512)
	w.chunk, w.traceChunk = 5, 50
	if w.kind == serve {
		w.chunk, w.traceChunk = 64, 256
	}
	w.checkOps = min(w.checkOps, 4000)
	return w
}

// spec renders the workload's Config as set (0 means auto).
func (w workload) spec() string {
	c := w.cfg
	return fmt.Sprintf("policy=%s n=%d k=%d d=%d beta=%g store=%s block=%d shards=%d",
		c.Policy, c.Bins, c.K, c.D, c.Beta, c.Store, c.Block, c.Shards)
}

// validate rejects shapes the timed loops cannot run exactly.
func (w workload) validate() error {
	for _, chunk := range []int{w.chunk, w.traceChunk} {
		if w.kind == rounds && (w.cfg.Bins%w.cfg.K != 0 || (w.cfg.Bins/w.cfg.K)%chunk != 0) {
			return fmt.Errorf("%s: chunk %d must divide the %d/%d rounds of a full run", w.name, chunk, w.cfg.Bins, w.cfg.K)
		}
		if w.kind == serve && genBlock%chunk != 0 {
			return fmt.Errorf("%s: chunk %d must divide the generation block %d", w.name, chunk, genBlock)
		}
	}
	return nil
}

// server is the operation surface shared by kdchoice.Allocator and
// core.Process, so one client drives either.
type server interface {
	Insert() (kdchoice.Ball, error)
	Delete(kdchoice.Ball) error
}

// client drives a server with churn ops, keeping the live handles and a
// ring of recently deleted ones.
type client struct {
	s       server
	live    []kdchoice.Ball
	dead    [8]kdchoice.Ball
	deaths  int
	inserts int
}

func newClient(s server, n int) *client {
	return &client{s: s, live: make([]kdchoice.Ball, 0, 2*n)}
}

// apply performs one op: an insert, or the delete of the live ball op.U
// selects.
func (cl *client) apply(op churn.Op) error {
	if op.Kind == churn.OpInsert {
		b, err := cl.s.Insert()
		if err != nil {
			return err
		}
		cl.live = append(cl.live, b)
		cl.inserts++
		return nil
	}
	if len(cl.live) == 0 {
		return fmt.Errorf("delete with no live ball")
	}
	vi := int(op.U * float64(len(cl.live)))
	if vi >= len(cl.live) {
		vi = len(cl.live) - 1
	}
	b := cl.live[vi]
	if err := cl.s.Delete(b); err != nil {
		return err
	}
	cl.live[vi] = cl.live[len(cl.live)-1]
	cl.live = cl.live[:len(cl.live)-1]
	cl.dead[cl.deaths%len(cl.dead)] = b
	cl.deaths++
	return nil
}

// fill inserts n balls: the population the stream's Live0 assumes.
func (cl *client) fill(n int, c *checker) {
	for i := 0; i < n; i++ {
		c.op(cl.apply(churn.Op{Kind: churn.OpInsert}))
	}
}

// checkServe verifies the serving invariants of a client whose allocator
// is a: Live equals the stream's live count, and every recently deleted
// handle is rejected.
func checkServe(c *checker, a *kdchoice.Allocator, cl *client, streamLive int) {
	if c.check(a.Live() == streamLive && len(cl.live) == streamLive) {
		c.note("Live %d, client %d, stream %d", a.Live(), len(cl.live), streamLive)
	}
	for i := 0; i < min(cl.deaths, len(cl.dead)); i++ {
		h := cl.dead[i]
		_, binErr := a.BallBin(h)
		if c.check(a.Delete(h) != nil && binErr != nil) {
			c.note("deleted handle %v accepted", h)
		}
	}
}

// newChurn returns the workload's churn stream: the steady state holds n
// live balls (Live0 = n, Lambda = n·Mu) with unit weights.
func newChurn(w workload, seed uint64) (*churn.Stream, error) {
	n := float64(w.cfg.Bins)
	return churn.NewStream(churn.Churn{Lambda: n, Mu: 1, Live0: w.cfg.Bins}, xrand.NewStream(seed, churnStream))
}

// generate fills ops from the stream.
func generate(st *churn.Stream, ops []churn.Op) {
	for i := range ops {
		ops[i] = st.Next()
	}
}

// instance is one set-up allocator with everything the timed loop needs.
type instance struct {
	a      *kdchoice.Allocator
	cl     *client       // serve only
	stream *churn.Stream // serve only, positioned after the check run
	check  outcome       // the check run's outcome
	balls  int           // balls the check run placed (inserts, for serve)
	// maxLoads holds MaxLoad at the check run and at the timed loop's
	// first points checkpoints.
	maxLoads []float64
	points   int
}

// checkpoint records MaxLoad until points checkpoints are taken.
func (in *instance) checkpoint() {
	if len(in.maxLoads) <= in.points {
		in.maxLoads = append(in.maxLoads, float64(in.a.MaxLoad()))
	}
}

// running reports whether a timed loop goes on: until the deadline, and
// past it until every max_load checkpoint is taken.
func (in *instance) running(deadline int64) bool {
	return now() < deadline || len(in.maxLoads) <= in.points
}

// setUp builds the workload's allocator and runs its warm-up, which is the
// check run: one full n-into-n run (then Reset), the warm prefix of rounds,
// or n inserts plus checkOps churn ops. ops is the check run's
// pre-generated churn (serve only). It returns the wall time and the
// process CPU time from New to the end of the warm-up.
func setUp(w workload, seed uint64, ops []churn.Op, c *checker) (in *instance, wall, cpu time.Duration, err error) {
	c0, err := cpuTime()
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	a, err := newAllocator(w, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	in = &instance{a: a}
	switch {
	case w.kind == serve:
		in.cl = newClient(a, w.cfg.Bins)
		in.cl.fill(w.cfg.Bins, c)
		for _, op := range ops {
			c.op(in.cl.apply(op))
		}
	case w.fullRuns:
		a.PlaceAll()
	default:
		c.op(a.Place(w.warmRounds * w.cfg.K))
	}
	wall = time.Since(t0)
	c1, err := cpuTime()
	return in, wall, c1 - c0, err
}

// cpuTime returns the CPU time the process has used, user and system. Unlike
// wall time it leaves out the time the host did not run the process.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// checkRun verifies the instance right after setUp and, for full runs,
// resets it for the timed loop.
func (in *instance) checkRun(w workload, c *checker) {
	in.check = observe(in.a)
	in.maxLoads = append(make([]float64, 0, maxLoadPoints+1), float64(in.check.maxLoad))
	in.balls = in.check.balls
	if w.kind == serve {
		in.balls = in.cl.inserts
		checkServe(c, in.a, in.cl, in.stream.Live())
	}
	c.verify(in.check, wantMessages(w.cfg, in.balls, in.check.rounds), theoryBound(w))
	if w.fullRuns {
		in.a.Reset()
	}
}

// freeHeap collects garbage and returns freed pages to the OS, so every
// set-up starts from unmapped memory and heap readings see live data only.
func freeHeap() runtime.MemStats {
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// session is one run's set-ups and timed loop. The workload is set up reps
// times from one seed, and each set-up is followed by its share of the
// timed loop, so the timings average over several allocators' placement
// in memory instead of resting on one.
type session struct {
	t         *timings
	setup     []float64 // CPU seconds per rep
	setupWall []float64 // wall seconds per rep
	heapPer   []float64 // heap bytes per bin per rep
	check     outcome   // the first rep's check run
	balls     int       // balls its check run placed (inserts, for serve)
	maxLoads  []float64 // the first rep's max_load checkpoints
	allocs    uint64    // heap allocations during the timed loops
	gcs       uint32    // GC cycles during the timed loops
}

// runSession sets the workload up reps times, checks every check run and
// that all of them agree, and times each rep for its share of dur.
func runSession(w workload, seed uint64, dur time.Duration, reps int, c *checker) (*session, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	s := &session{t: newTimings(w, dur)}
	idle := runtime.NumGoroutine()
	var ops []churn.Op
	if w.kind == serve {
		ops = make([]churn.Op, w.checkOps)
	}
	for rep := 0; rep < reps; rep++ {
		var stream *churn.Stream
		if w.kind == serve {
			// The stream is input, made before the clock starts; every rep
			// replays the same ops.
			var err error
			if stream, err = newChurn(w, seed); err != nil {
				return nil, err
			}
			generate(stream, ops)
		}
		base := freeHeap()
		in, wall, cpu, err := setUp(w, seed, ops, c)
		if err != nil {
			return nil, err
		}
		after := freeHeap()
		held := int64(after.HeapAlloc) - int64(base.HeapAlloc)
		if in.cl != nil {
			held -= int64(cap(in.cl.live)) * 8 // the caller's handles, not the allocator's
		}
		s.setup = append(s.setup, cpu.Seconds())
		s.setupWall = append(s.setupWall, wall.Seconds())
		s.heapPer = append(s.heapPer, float64(held)/float64(w.cfg.Bins))
		in.stream = stream
		in.checkRun(w, c)
		if rep == 0 {
			s.check, s.balls = in.check, in.balls
			in.points = maxLoadPoints
		} else {
			c.same(s.check, in.check)
		}

		deadline := now() + int64(dur)/int64(reps)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if w.kind == serve {
			timeServe(w, in, deadline, c, s.t)
		} else {
			timeRounds(w, in, deadline, c, s.t)
		}
		runtime.ReadMemStats(&ms1)
		s.allocs += ms1.Mallocs - ms0.Mallocs
		s.gcs += ms1.NumGC - ms0.NumGC
		in.finalCheck(w, c)
		if rep == 0 {
			s.maxLoads = in.maxLoads
		}
		in.a.Close()
		if err := awaitGoroutines(idle); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// awaitGoroutines waits until no more than n goroutines run. Close only
// signals a sharded allocator's workers to stop; until they have exited
// they keep its bins reachable, and the next set-up's base heap reading
// would count them.
func awaitGoroutines(n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running 10 s after Close, want at most %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// endToEndMetrics runs the untraced benchmark of one workload for dur and
// returns its end-to-end metrics.
func endToEndMetrics(w workload, seed uint64, dur time.Duration, c *checker, log func(string, ...any)) (map[string]float64, error) {
	s, err := runSession(w, seed, dur, setupReps, c)
	if err != nil {
		return nil, err
	}
	t := s.t

	// Throughput: the median over groups of chunkGroup consecutive chunks,
	// long enough to span the engine's periodic work (superstep refills,
	// generation blocks). Tail: p90 of single chunks, short enough that
	// the host's scheduling stalls hit fewer than a tenth of them.
	var groupNs, groupRate, perBall []float64
	for i := 0; i+chunkGroup <= len(t.ns); i += chunkGroup {
		ns, balls := 0.0, 0.0
		for j := i; j < i+chunkGroup; j++ {
			ns += t.ns[j]
			balls += t.balls[j]
		}
		groupNs = append(groupNs, ns)
		groupRate = append(groupRate, balls/ns*1e9)
	}
	for i, ns := range t.ns {
		if t.balls[i] > 0 {
			perBall = append(perBall, ns/t.balls[i])
		}
	}
	p90, beyond := percentile(t.ns, 90)
	p90Ball, _ := percentile(perBall, 90)
	m := map[string]float64{
		"setup_s":            median(s.setup),
		"ops_per_s":          float64(w.chunk*chunkGroup) / median(groupNs) * 1e9,
		"balls_per_s":        median(groupRate),
		"p90_ns_per_op":      p90 / float64(w.chunk),
		"p90_ns_per_ball":    p90Ball,
		"max_load":           mean(s.maxLoads),
		"messages_per_ball":  float64(s.check.messages) / float64(s.balls),
		"heap_bytes_per_bin": median(s.heapPer),
	}
	p99, beyond99 := percentile(t.ns, 99)
	log("setup: %d reps, CPU seconds %.4g, wall seconds %.4g", len(s.setup), s.setup, s.setupWall)
	log("throughput: median of %d groups of %d chunks of %d %s", len(groupNs), chunkGroup, w.chunk, unitOp(w))
	log("chunk ns: p50 %.0f, p90 %.0f with %d beyond, p99 %.0f with %d beyond", median(t.ns), p90, beyond, p99, beyond99)
	log("max_load: mean of %d checkpoints %v", len(s.maxLoads), s.maxLoads)
	return m, nil
}

// chunkGroup is how many consecutive chunks one throughput sample spans.
const chunkGroup = 10

func unitOp(w workload) string {
	if w.kind == serve {
		return "ops"
	}
	return "rounds"
}

// timings holds a timed loop's samples and buffers, allocated before the
// clock starts so that the loop itself allocates nothing.
type timings struct {
	ns, balls []float64  // per chunk: its time and the balls it placed
	ops       []churn.Op // serve: the generation block
}

func newTimings(w workload, dur time.Duration) *timings {
	size := int(dur/(5*time.Microsecond)) + 1024
	t := &timings{ns: make([]float64, 0, size), balls: make([]float64, 0, size)}
	if w.kind == serve {
		t.ops = make([]churn.Op, genBlock)
	}
	return t
}

// timeRounds times chunks of Round calls until the deadline. Whenever an
// n-into-n run completes it is checked and Reset, untimed.
func timeRounds(w workload, in *instance, deadline int64, c *checker, t *timings) {
	a := in.a
	balls := float64(w.chunk * w.cfg.K)
	for in.running(deadline) {
		t0 := now()
		for i := 0; i < w.chunk; i++ {
			a.Round()
		}
		t.ns = append(t.ns, float64(now()-t0))
		t.balls = append(t.balls, balls)
		c.ops(w.chunk)
		if !w.fullRuns {
			in.checkpoint()
		}
		if a.Balls() >= w.cfg.Bins {
			if w.fullRuns {
				in.checkpoint()
			}
			in.finalCheck(w, c)
			a.Reset()
		}
	}
}

// timeServe replays the churn stream in chunks of ops until the deadline, generating each block of ops untimed before replaying all of it.
func timeServe(w workload, in *instance, deadline int64, c *checker, t *timings) {
	cl := in.cl
	for in.running(deadline) {
		generate(in.stream, t.ops)
		for lo := 0; lo < len(t.ops); lo += w.chunk {
			ins := cl.inserts
			t0 := now()
			for _, op := range t.ops[lo : lo+w.chunk] {
				if err := cl.apply(op); err != nil {
					c.fail("operation failed: %v", err)
				}
			}
			t.ns = append(t.ns, float64(now()-t0))
			t.balls = append(t.balls, float64(cl.inserts-ins))
			c.ops(w.chunk)
		}
		in.checkpoint()
	}
}

// finalCheck verifies the allocator after a timed loop (or a completed
// run of it).
func (in *instance) finalCheck(w workload, c *checker) {
	live := 0
	if in.stream != nil {
		live = in.stream.Live()
	}
	verifyRun(w, in.a, in.cl, live, c)
}

// verifyRun checks an allocator's outputs: the identities every run must
// meet and, for serve, the serving invariants against the stream's live
// count.
func verifyRun(w workload, a *kdchoice.Allocator, cl *client, streamLive int, c *checker) {
	o := observe(a)
	if w.kind == serve {
		c.verify(o, wantMessages(w.cfg, cl.inserts, o.rounds), 0)
		checkServe(c, a, cl, streamLive)
		return
	}
	c.verify(o, wantMessages(w.cfg, o.balls, o.rounds), theoryBound(w))
}
