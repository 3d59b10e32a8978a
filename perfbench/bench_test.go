package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"testing"

	"odr/internal/workload"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricNames pins the metric-name grammar and keeps BENCHMARK.json
// and the metrics the benchmark prints in step.
func TestMetricNames(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	b := loadBenchmarkFile(t)
	seen := map[string]bool{}
	check := func(name, u string) {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q breaks the grammar %s", name, metricName)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
		if !unit.MatchString(u) {
			t.Errorf("metric %s: unit %q breaks the unit grammar", name, u)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] is %s/%s, the benchmark prints %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound < maxBound {
			t.Errorf("setup_s bound %g must be the largest (another is %g)", m.Bound, maxBound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] is %s/%s, the benchmark prints %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		check(w.Name, "1")
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no run", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1-200 characters", w.Name)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "p50/ms", "x√", string(make([]byte, 65))} {
		if metricName.MatchString(bad) {
			t.Errorf("grammar accepts %q", bad)
		}
	}
}

// TestLatencySummary checks the exact-sample percentiles against a known
// distribution: 1..1000 in random order.
func TestLatencySummary(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(7)).Shuffle(len(samples), func(i, j int) {
		samples[i], samples[j] = samples[j], samples[i]
	})
	s := summarize(samples)
	want := latencySummary{N: 1000, P50: 500, P90: 900, Beyond50: 500, Beyond90: 100}
	if s != want {
		t.Fatalf("summary %+v, want %+v", s, want)
	}
	// Ties: the beyond counts are strict.
	s = summarize([]float64{1, 2, 2, 2, 2, 2, 2, 2, 2, 3})
	if s.P50 != 2 || s.P90 != 2 || s.Beyond50 != 1 || s.Beyond90 != 1 {
		t.Fatalf("tied summary %+v", s)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median %g, want 2.5", m)
	}
}

// TestErrorAccounting: a 429 (or any non-200 item, call, or malformed
// answer) counts as failed.
func TestErrorAccounting(t *testing.T) {
	body := []byte(`{"results":[
		{"status":200,"decision":{"route":"smart-ap"}},
		{"status":429,"error":"rate limited","retry_after_seconds":1},
		{"status":200,"decision":{"route":"teleport"}},
		{"status":200}
	],"admitted":3,"rejected":1}`)
	routes := map[string]int{}
	ok, failed := tallyCall(http.StatusOK, body, 4, routes)
	if ok != 1 || failed != 3 || routes["smart-ap"] != 1 || len(routes) != 1 {
		t.Fatalf("ok=%d failed=%d routes=%v, want 1 answered smart-ap and 3 failed", ok, failed, routes)
	}
	if ok, failed := tallyCall(http.StatusTooManyRequests, nil, 64, routes); ok != 0 || failed != 64 {
		t.Fatalf("a 429 call counted ok=%d failed=%d", ok, failed)
	}
	if ok, failed := tallyCall(http.StatusOK, body, 5, routes); ok != 0 || failed != 5 {
		t.Fatalf("a short answer counted ok=%d failed=%d", ok, failed)
	}
	r := newResult()
	r.Attempted = 10
	r.fail(errCheck)
	if r.Correct || r.Failed != 10 || r.errorRatio() != 1 {
		t.Fatalf("a failed run reports correct=%v failed=%d", r.Correct, r.Failed)
	}
}

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// testConfig builds the binaries the runs spawn and returns a tiny-scale
// configuration.
func testConfig(t *testing.T) config {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the workloads")
	}
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "perfbench-test-")
		if buildErr != nil {
			return
		}
		for _, args := range [][]string{
			{"build", "-o", buildDir + "/", "odr/cmd/odrcoord", "odr/cmd/odrserver"},
			{"build", "-o", filepath.Join(buildDir, "perfbench"), "."},
		} {
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				buildErr = fmt.Errorf("go %v: %v: %s", args, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	work := t.TempDir()
	if err := os.MkdirAll(filepath.Join(work, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	return config{seed: 3, seconds: 0.2, bin: buildDir, work: work,
		nproc: runtime.NumCPU(), weekFiles: 600, serveFiles: 300}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// TestWorkloadsTiny runs each workload end to end at a tiny scale: every
// run must pass its output check and report every end-to-end metric.
func TestWorkloadsTiny(t *testing.T) {
	c := testConfig(t)
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := run(c)
			if err == nil {
				err = res.checkNames(endToEnd)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

// TestSimulatedFailuresAreNotErrors: a replay whose simulated downloads
// fail still passes its check, because those failures are domain
// outcomes inside the digest.
func TestSimulatedFailuresAreNotErrors(t *testing.T) {
	c := testConfig(t)
	st, err := workload.GenerateStream(workload.DefaultConfig(c.weekFiles, c.seed), 0)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := weekOp(st, c.seed, 2, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failures == 0 {
		t.Fatal("tiny week replay simulated no download failures; the test needs some")
	}
	ref, err := weekReference(c.weekFiles, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.check(out.Records, out.Digest); err != nil {
		t.Fatal(err)
	}
	if err := ref.check(out.Records, "0"+out.Digest[1:]); err == nil {
		t.Fatal("a different digest passed the check")
	}
}

// TestTracedTiny runs the traced battery at a tiny scale: it must pass its
// checks and report every per-layer metric.
func TestTracedTiny(t *testing.T) {
	c := testConfig(t)
	res, err := runTraced(c)
	if err == nil {
		res.metric("host.steal_pct", 0, "%")
		err = res.checkNames(perLayer)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
}
