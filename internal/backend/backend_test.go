package backend_test

import (
	"sync"
	"testing"

	"odr/internal/backend"
	"odr/internal/backend/backendtest"
	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/dist"
	"odr/internal/smartap"
	"odr/internal/workload"
)

const (
	fixtureSeed  = 424242
	fixtureFiles = 4000
	fixtureReqs  = 240
	envCap       = 2.5 * 1024 * 1024
)

var (
	fixOnce   sync.Once
	fixTrace  *workload.Trace
	fixSample []workload.Request
	fixAPs    []*smartap.AP
)

func fixture(t testing.TB) ([]workload.Request, []*workload.FileMeta, []*smartap.AP) {
	t.Helper()
	fixOnce.Do(func() {
		tr, err := workload.Generate(workload.DefaultConfig(fixtureFiles, fixtureSeed))
		if err != nil {
			t.Fatalf("generate trace: %v", err)
		}
		fixTrace = tr
		fixSample = workload.UnicomSample(tr, fixtureReqs, fixtureSeed)
		fixAPs = smartap.Benchmarked()
	})
	return fixSample, fixTrace.Files, fixAPs
}

// requests builds the scenario's request factory: the i-th request with a
// fresh index-keyed RNG substream on every call.
func requests(sample []workload.Request, aps []*smartap.AP) func(i int) *backend.Request {
	root := dist.NewRNG(fixtureSeed).Split("conformance")
	return func(i int) *backend.Request {
		return &backend.Request{
			Index:  i,
			User:   sample[i].User,
			File:   sample[i].File,
			AP:     aps[i%len(aps)],
			RNG:    root.Split64(uint64(i)),
			EnvCap: envCap,
		}
	}
}

func newSet(sample []workload.Request, files []*workload.FileMeta) *backend.Set {
	set := backend.NewSet(files, cloud.DefaultConfig(
		float64(len(files))/cloud.FullScaleFiles, fixtureSeed), fixtureSeed)
	for i := range sample {
		set.Cloud.ObserveAt(i, sample[i].File, sample[i].Time)
	}
	return set
}

func TestCloudConformance(t *testing.T) {
	sample, files, aps := fixture(t)
	backendtest.Run(t, len(sample), func() backendtest.Instance {
		return backendtest.Instance{
			Backend: newSet(sample, files).Cloud,
			Request: requests(sample, aps),
		}
	})
}

func TestSmartAPConformance(t *testing.T) {
	sample, files, aps := fixture(t)
	backendtest.Run(t, len(sample), func() backendtest.Instance {
		return backendtest.Instance{
			Backend: newSet(sample, files).SmartAP,
			Request: requests(sample, aps),
		}
	})
}

func TestUserDeviceConformance(t *testing.T) {
	sample, files, aps := fixture(t)
	backendtest.Run(t, len(sample), func() backendtest.Instance {
		return backendtest.Instance{
			Backend: newSet(sample, files).UserDevice,
			Request: requests(sample, aps),
		}
	})
}

func TestCloudThenAPConformance(t *testing.T) {
	sample, files, aps := fixture(t)
	backendtest.Run(t, len(sample), func() backendtest.Instance {
		return backendtest.Instance{
			Backend: newSet(sample, files).CloudThenAP,
			Request: requests(sample, aps),
		}
	})
}

// TestSetResolvesEveryRoute pins the Decision→Backend mapping: every
// route the decision procedure can emit resolves, and the pre-download
// route lands on the cloud (the machine that acts before the user is
// told to ask again).
func TestSetResolvesEveryRoute(t *testing.T) {
	sample, files, aps := fixture(t)
	_ = aps
	set := newSet(sample, files)
	cases := []struct {
		route core.Route
		want  backend.Backend
	}{
		{core.RouteUserDevice, set.UserDevice},
		{core.RouteSmartAP, set.SmartAP},
		{core.RouteCloud, set.Cloud},
		{core.RouteCloudPreDownload, set.Cloud},
		{core.RouteCloudThenAP, set.CloudThenAP},
	}
	for _, c := range cases {
		got, err := set.ForRoute(c.route)
		if err != nil {
			t.Fatalf("ForRoute(%v): %v", c.route, err)
		}
		if got != c.want {
			t.Errorf("ForRoute(%v) = %s, want %s", c.route, got.Name(), c.want.Name())
		}
		if set.Resolve(core.Decision{Route: c.route}) != got {
			t.Errorf("Resolve(%v) disagrees with ForRoute", c.route)
		}
		if name := backend.NameForRoute(c.route); name != c.want.Name() {
			t.Errorf("NameForRoute(%v) = %q, want %q", c.route, name, c.want.Name())
		}
	}
	if _, err := set.ForRoute(core.Route(99)); err == nil {
		t.Error("ForRoute(99) should fail")
	}
	if got := len(set.All()); got != 4 {
		t.Errorf("All() returned %d backends, want 4", got)
	}
}

// TestCloudThenAPSharesCloudState verifies the composite backend charges
// the shared cloud ledger and sees the same cache as the cloud backend.
func TestCloudThenAPSharesCloudState(t *testing.T) {
	sample, files, aps := fixture(t)
	set := newSet(sample, files)
	reqs := requests(sample, aps)
	for i := 0; i < len(sample); i++ {
		if set.CloudThenAP.Probe(reqs(i)) != set.Cloud.Probe(reqs(i)) {
			t.Fatalf("request %d: composite and cloud probes disagree", i)
		}
	}
	before := set.Cloud.Ledger().BytesOut()
	pre := set.CloudThenAP.PreDownload(reqs(0))
	if !pre.OK {
		t.Fatal("cloud→AP pull cannot fail")
	}
	gained := set.Cloud.Ledger().BytesOut() - before
	if gained != sample[0].File.Size {
		t.Errorf("cloud ledger gained %d bytes, want the file's %d", gained, sample[0].File.Size)
	}
}

// TestCloudStagnationTimeoutFromConfig pins the satellite fix: a failed
// cloud pre-download charges the configured stagnation timeout, not a
// hardcoded hour.
func TestCloudStagnationTimeoutFromConfig(t *testing.T) {
	sample, files, _ := fixture(t)
	cfg := cloud.DefaultConfig(float64(len(files))/cloud.FullScaleFiles, fixtureSeed)
	cfg.StagnationTimeout = cfg.StagnationTimeout / 4
	c := backend.NewCloud(files, cfg, fixtureSeed)
	for i := range sample {
		c.ObserveAt(i, sample[i].File, sample[i].Time)
	}
	root := dist.NewRNG(fixtureSeed).Split("conformance")
	sawFailure := false
	for i := range sample {
		req := &backend.Request{
			Index: i, User: sample[i].User, File: sample[i].File,
			RNG: root.Split64(uint64(i)), EnvCap: envCap,
		}
		if pre := c.PreDownload(req); !pre.OK {
			sawFailure = true
			if pre.Delay != cfg.StagnationTimeout {
				t.Fatalf("request %d: failure delay %v, want configured %v", i, pre.Delay, cfg.StagnationTimeout)
			}
		}
	}
	if !sawFailure {
		t.Skip("no cloud pre-download failures in fixture; widen the sample")
	}
}
