package main

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricDef names one metric and its unit, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports, for every workload
// (BENCHMARK.json "end_to_end"). Both workloads are batch jobs whose
// users wait for the whole result, so there are no percentile metrics.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"cpu_us_per_req", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics the traced run reports (BENCHMARK.json
// "per_layer"). Every traced run covers the week, coord and serve
// batteries, so each run reports every name.
var perLayer = []metricDef{
	{"workload.populate_s", "s"},
	{"workload.gen_rps", "1/s"},
	{"workload.gen_speedup", "x"},
	{"dist.split_ns", "ns"},
	{"trace.encode_rps", "1/s"},
	{"trace.decode_rps", "1/s"},
	{"replay.engine_rps", "1/s"},
	{"replay.shard_speedup", "x"},
	{"replay.reader_share", "1"},
	{"replay.timeline_s", "s"},
	{"replay.digest_s", "s"},
	{"replay.allocs_per_req", "count"},
	{"core.decide_ns", "ns"},
	{"obs.observe_ns", "ns"},
	{"cloud.observe_rps", "1/s"},
	{"cloud.hit_ratio", "1"},
	{"cloud.evictions_per_req", "1"},
	{"distrib.speedup_vs_single", "x"},
	{"distrib.read_amplification", "x"},
	{"distrib.census_s", "s"},
	{"distrib.prefix_s", "s"},
	{"distrib.window_s", "s"},
	{"distrib.parallelism", "x"},
	{"distrib.spawn_s", "s"},
	{"distrib.partial_bytes", "bytes"},
	{"distrib.partial_write_s", "s"},
	{"distrib.merge_s", "s"},
	{"odrweb.server_ms_per_call", "ms"},
	{"odrweb.handler_us_per_call", "us"},
	{"ingest.decide_ms_per_batch", "ms"},
	{"ingest.batch_size_mean", "count"},
	{"client.net_ms", "ms"},
	{"client.codec_us_per_call", "us"},
	{"server.cpu_util", "1"},
	{"host.steal_pct", "%"},
	{"trace.coverage.week", "1"},
	{"trace.coverage.coord", "1"},
	{"trace.coverage.serve", "1"},
	{"trace.overhead_pct.week", "%"},
	{"trace.overhead_pct.coord", "%"},
	{"trace.overhead_pct.serve", "%"},
}

// metricName is the grammar every metric name must follow.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome; its JSON form is the last stdout line.
// Attempted and Failed count trace records (decisions, in the traced
// serve battery); Failed/Attempted is the run's error_ratio.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable context (sample counts, checks)
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}}
}

func (r *result) metric(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run failed. A run that failed counts at least one
// failed operation out of at least one attempted.
func (r *result) fail(err error) {
	r.Correct = false
	r.notef("FAIL: %v", err)
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	if r.Failed < 1 {
		r.Failed = r.Attempted
	}
}

// errorRatio is failed operations over attempted ones.
func (r *result) errorRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// checkNames verifies the run reports exactly the metrics its mode must.
func (r *result) checkNames(defs []metricDef) error {
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics reported, want %d", len(r.Metrics), len(defs))
	}
	return nil
}

func (r *result) printHuman(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "error_ratio %.6g (%d failed / %d attempted), correct=%v\n",
		r.errorRatio(), r.Failed, r.Attempted, r.Correct)
}
