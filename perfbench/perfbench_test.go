package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
)

// tinyRun runs a shrunk workload and returns its result and output.
func tinyRun(t *testing.T, w workload, trace bool) (result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := runOne(w.tiny(), 7, 200*time.Millisecond, trace, t.TempDir(), &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, out.String())
	}
	return res, out.String()
}

// TestTinyRunsEmitEveryMetric runs every workload at test size in both
// modes: each named metric must be present with its unit, and every check
// must pass.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, out := tinyRun(t, w, trace)
			names, units, _ := endNames()
			if trace {
				names, units, _ = layerNames()
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(names))
			}
			for i, name := range names {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != units[i] {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, name, m, units[i])
				}
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: failed %d of %d\n%s", w.name, trace, res.Failed, res.Attempted, out)
			}
		}
	}
}

// TestEndToEndMetricsNonZero: bounds are shares of a median, so
// no end-to-end metric may read 0.
func TestEndToEndMetricsNonZero(t *testing.T) {
	for _, w := range workloads {
		res, _ := tinyRun(t, w, false)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v", w.name, name, m.Value)
			}
		}
	}
}

// TestLayersAddUp: fill + gather + apply + select is core.round_ns on
// every round workload.
func TestLayersAddUp(t *testing.T) {
	for _, w := range workloads {
		if w.kind != rounds {
			continue
		}
		res, _ := tinyRun(t, w, true)
		v := func(name string) float64 { return res.Metrics[name].Value }
		width := float64(w.cfg.D)
		if w.cfg.Policy == kdchoice.StaleBatch {
			width *= float64(w.cfg.K)
		}
		sum := v("xrand.fill_ns_per_sample")*width + v("loadvec.gather_ns_per_probe")*width +
			v("loadvec.apply_ns_per_ball")*float64(w.cfg.K) + v("core.select_ns_per_round")
		if d := sum - v("core.round_ns"); d > 1e-6 || d < -1e-6 {
			t.Errorf("%s: layers sum to %v, core.round_ns %v", w.name, sum, v("core.round_ns"))
		}
	}
}

// TestCheckerFlagsBrokenResults feeds the checker a load vector with one
// ball removed and a message count that is off by one.
func TestCheckerFlagsBrokenResults(t *testing.T) {
	w := workloads[0].tiny()
	a, err := newAllocator(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	a.PlaceAll()
	good := observe(a)
	want := wantMessages(w.cfg, good.balls, good.rounds)

	c := &checker{}
	c.verify(good, want, theoryBound(w))
	if c.failed != 0 {
		t.Fatalf("intact run flagged: %v", c.notes)
	}

	removed := observe(removeOne{a, firstLoaded(a)})
	c = &checker{}
	c.verify(removed, want, theoryBound(w))
	if c.failed == 0 {
		t.Error("load vector with one ball removed passed")
	}

	c = &checker{}
	c.verify(good, want+1, theoryBound(w))
	if c.failed != 1 || !strings.Contains(c.notes[0], "messages") {
		t.Errorf("messages off by one: failed %d, notes %v", c.failed, c.notes)
	}

	b, err := newAllocator(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	b.PlaceAll()
	c = &checker{}
	c.same(good, observe(b))
	if c.failed != 1 {
		t.Error("runs from different seeds compared equal")
	}
}

// removeOne reads an allocator's loads with one ball taken out of bin.
type removeOne struct {
	*kdchoice.Allocator
	bin int
}

func (r removeOne) Load(bin int) int {
	if bin == r.bin {
		return r.Allocator.Load(bin) - 1
	}
	return r.Allocator.Load(bin)
}

func firstLoaded(a *kdchoice.Allocator) int {
	for b := 0; ; b++ {
		if a.Load(b) > 0 {
			return b
		}
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json generated from the
// tables this program reports.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate with: bash perfbench/run.sh --manifest > BENCHMARK.json")
	}
	var m map[string]any
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
}

// TestRunRejectsBadFlags: bad flags fail without printing a result.
func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	out.Reset()
	if code := run([]string{"--workload", "kd-cache", "--trace", "2"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("bad trace flag: exit %d, stdout %q", code, out.String())
	}
}
