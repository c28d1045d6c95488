// Command perfbench is the repository's benchmark. It runs one workload
// (or all four, in one process) through the public kdchoice API for a
// fixed time, checks every run's outputs, and prints each metric by name
// with its unit; the last line of standard output is the JSON result.
//
//	bash perfbench/run.sh --workload kd-cache --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics instead: it replays the workload's rounds (or ops) through each
// layer's entry point with a span around every call, and writes the spans
// to the trace directory. --manifest prints BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the JSON object of the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContext is recorded with every result: what ran, and on what.
type runContext struct {
	Workload   string  `json:"workload"`
	Spec       string  `json:"spec"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", runSeconds, "measurement time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := lookup(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		ws = []workload{w}
	}
	dur := time.Duration(*seconds * float64(time.Second))
	total := result{Metrics: map[string]metric{}}
	var last result
	for _, w := range ws {
		res, err := runOne(w, *seed, dur, *trace == 1, *traceDir, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		last = res
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	if len(ws) > 1 {
		last = total
	}
	last.Correct = last.Failed == 0
	b, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// runOne runs one workload, printing its context, failures and metrics.
func runOne(w workload, seed uint64, dur time.Duration, trace bool, traceDir string, out io.Writer) (result, error) {
	ctx := runContext{
		Workload: w.name, Spec: w.spec(), Seed: seed, Seconds: dur.Seconds(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	if trace {
		ctx.Trace = 1
	}
	hdr, err := json.Marshal(ctx)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "context %s\n", hdr)
	log := func(format string, args ...any) {
		fmt.Fprintf(out, "%s: "+format+"\n", append([]any{w.name}, args...)...)
	}
	c := &checker{}
	var values map[string]float64
	names, units, notes := endNames()
	if trace {
		tr := newTracer()
		values, err = traced(w, seed, dur, c, tr)
		if err == nil {
			if err = os.MkdirAll(traceDir, 0o755); err == nil {
				path := filepath.Join(traceDir, "trace-"+w.name+".jsonl")
				if err = tr.write(path, string(hdr)); err == nil {
					log("%d spans written to %s", len(tr.spans), path)
				}
			}
		}
		names, units, notes = layerNames()
	} else {
		values, err = endToEndMetrics(w, seed, dur, c, log)
	}
	if err != nil {
		return result{}, err
	}
	for _, note := range c.notes {
		log("FAILED %s", note)
	}
	res := result{Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metric{}}
	for i, name := range names {
		v, ok := values[name]
		shown := fmt.Sprintf("%.6g %s", v, units[i])
		if !ok {
			shown = "n/a (layer not on this workload's path; reported as 0)"
		}
		log("%s = %s%s", name, shown, notes[i])
		res.Metrics[name] = metric{Value: v, Unit: units[i]}
	}
	log("failed_frac = %d/%d", c.failed, c.attempted)
	return res, nil
}

// endNames and layerNames list the metrics of each mode with their units,
// and for the layers the prediction each carries.
func endNames() (names, units, notes []string) {
	for _, m := range endToEnd {
		names, units, notes = append(names, m.Name), append(units, m.Unit), append(notes, "")
	}
	return names, units, notes
}

func layerNames() (names, units, notes []string) {
	for _, m := range perLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
		notes = append(notes, fmt.Sprintf("  [moves %s; most work in %s; no change on %s]", m.moves, m.mostWork, m.noChange))
	}
	return names, units, notes
}
