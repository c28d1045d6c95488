package main

import "encoding/json"

// endMetric is an end-to-end metric: what a user of the allocator sees.
// Bound is the share of the parent's median by which it may worsen.
type endMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is a per-layer metric of the traced run, with the
// prediction it carries: the end-to-end metric it should move, the
// workload where its layer does the most work, and the workload where the
// prediction is no change.
type layerMetric struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Better   string `json:"better"`
	moves    string
	mostWork string
	noChange string
}

// The bounds are what a shared 2-vCPU Xeon VM (2 MiB L2 per core) can
// resolve. Across ten seeds the IQR/median spread was 0.05-0.09 for
// throughput, 0.03-0.15 for the p90 tails (serve-churn the widest) and
// 0.08-0.10 for setup_s; max_load is deterministic per seed but spreads up
// to 0.06 across seeds (stale-batch); messages_per_ball and
// heap_bytes_per_bin do not move.
var endToEnd = []endMetric{
	{"setup_s", "s", "lower", 0.25},
	{"balls_per_s", "1/s", "higher", 0.24},
	{"ops_per_s", "1/s", "higher", 0.24},
	{"p90_ns_per_ball", "ns", "lower", 0.24},
	{"p90_ns_per_op", "ns", "lower", 0.24},
	{"max_load", "balls", "lower", 0.2},
	{"messages_per_ball", "probes/ball", "lower", 0.01},
	{"heap_bytes_per_bin", "B/bin", "lower", 0.05},
}

var perLayer = []layerMetric{
	{"xrand.fill_ns_per_sample", "ns", "lower", "balls_per_s", "kd-cache", "serve-churn"},
	{"loadvec.gather_ns_per_probe", "ns", "lower", "balls_per_s", "kd-dram", "kd-cache"},
	{"loadvec.apply_ns_per_ball", "ns", "lower", "balls_per_s", "stale-batch", "serve-churn"},
	{"loadvec.sub_ns_per_op", "ns", "lower", "ops_per_s", "serve-churn", "round workloads"},
	{"loadvec.bytes_per_bin", "B/bin", "lower", "heap_bytes_per_bin", "kd-dram", "kd-cache"},
	{"loadvec.escaped_bins", "count", "lower", "heap_bytes_per_bin", "kd-dram", "kd-cache"},
	{"core.round_ns", "ns", "lower", "balls_per_s", "all round workloads", "serve-churn"},
	{"core.select_ns_per_round", "ns", "lower", "balls_per_s", "kd-cache", "stale-batch"},
	{"core.shard_overhead_ns_per_round", "ns", "lower", "balls_per_s, p90_ns_per_ball", "stale-batch", "kd-cache, kd-dram"},
	{"core.insert_ns", "ns", "lower", "ops_per_s, p90_ns_per_op", "serve-churn", "round workloads"},
	{"core.delete_ns", "ns", "lower", "ops_per_s, p90_ns_per_op", "serve-churn", "round workloads"},
	{"core.probes", "count", "lower", "messages_per_ball", "all", "(none named)"},
	{"core.rounds", "count", "lower", "messages_per_ball", "all", "(none named)"},
	{"kdchoice.wrap_ns_per_round", "ns", "lower", "balls_per_s", "kd-cache", "(none named)"},
	{"workload.gen_ns_per_op", "ns", "lower", "none (outside the timed loop)", "serve-churn", "(none named)"},
	{"runtime.allocs_per_round", "count", "lower", "p90_ns_per_ball", "all (must stay 0)", "(none named)"},
	{"runtime.allocs_per_op", "count", "lower", "p90_ns_per_op", "all (must stay 0)", "(none named)"},
	{"runtime.gc_cycles", "count", "lower", "p90_ns_per_ball, p90_ns_per_op", "all", "(none named)"},
	{"trace_overhead_frac", "frac", "lower", "none (traced minus untraced)", "all", "(none named)"},
}

// runSeconds is how long one run measures.
const runSeconds = 10

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	ws := make([]wl, len(workloads))
	for i, w := range workloads {
		ws[i] = wl{w.name, w.why}
	}
	b, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []endMetric   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{[]string{"bash", "perfbench/run.sh"}, []string{"perfbench"}, runSeconds, ws, endToEnd, perLayer}, "", "  ")
	return append(b, '\n'), err
}
