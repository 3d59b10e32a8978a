package swarm

import (
	"math"
	"testing"

	"odr/internal/dist"
	"odr/internal/workload"
)

func p2pFile(weekly int, proto workload.Protocol) *workload.FileMeta {
	return &workload.FileMeta{
		ID:             workload.FileIDFromIndex(uint64(weekly)),
		Size:           100 << 20,
		Protocol:       proto,
		WeeklyRequests: weekly,
	}
}

func TestAttemptPanicsOnHTTPFile(t *testing.T) {
	m := NewModel(Config{})
	g := dist.NewRNG(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-P2P file")
		}
	}()
	m.Attempt(g, &workload.FileMeta{Protocol: workload.ProtoHTTP})
}

func TestExpectedSeedsGrowsWithPopularity(t *testing.T) {
	m := NewModel(Config{})
	prev := -1.0
	for _, n := range []int{1, 3, 10, 50, 300} {
		s := m.ExpectedSeeds(p2pFile(n, workload.ProtoBitTorrent))
		if s <= prev {
			t.Fatalf("seeds not increasing at popularity %d", n)
		}
		prev = s
	}
}

func TestExpectedSeedsCapped(t *testing.T) {
	m := NewModel(Config{})
	s := m.ExpectedSeeds(p2pFile(1e9, workload.ProtoBitTorrent))
	if s != DefaultConfig().SeedCap {
		t.Fatalf("seed cap not applied: %g", s)
	}
}

func TestEMuleFewerSeeds(t *testing.T) {
	m := NewModel(Config{})
	bt := m.ExpectedSeeds(p2pFile(50, workload.ProtoBitTorrent))
	em := m.ExpectedSeeds(p2pFile(50, workload.ProtoEMule))
	if em >= bt {
		t.Fatalf("eMule seeds %g not below BitTorrent %g", em, bt)
	}
}

// §5.2: unpopular files fail ≈42 % of fresh attempts; highly popular
// files almost never fail.
func TestFailureRatioByPopularity(t *testing.T) {
	m := NewModel(Config{})
	g := dist.NewRNG(7)
	failRatio := func(weekly, n int) float64 {
		fails := 0
		f := p2pFile(weekly, workload.ProtoBitTorrent)
		for i := 0; i < n; i++ {
			if !m.Attempt(g, f).OK {
				fails++
			}
		}
		return float64(fails) / float64(n)
	}
	unpop := failRatio(3, 20000)
	if unpop < 0.30 || unpop > 0.55 {
		t.Errorf("unpopular failure ratio = %.3f, want ≈0.42", unpop)
	}
	pop := failRatio(30, 20000)
	if pop > 0.05 {
		t.Errorf("popular failure ratio = %.3f, want < 0.05", pop)
	}
	high := failRatio(300, 20000)
	if high > 0.02 {
		t.Errorf("highly popular failure ratio = %.3f, want ≈0", high)
	}
	if !(unpop > pop && pop >= high) {
		t.Errorf("failure ordering violated: %.3f, %.3f, %.3f", unpop, pop, high)
	}
}

func TestFailedAttemptHasZeroRate(t *testing.T) {
	m := NewModel(Config{})
	g := dist.NewRNG(11)
	f := p2pFile(1, workload.ProtoBitTorrent)
	for i := 0; i < 5000; i++ {
		a := m.Attempt(g, f)
		if !a.OK && a.Rate != 0 {
			t.Fatalf("failed attempt has rate %g", a.Rate)
		}
		if a.OK && a.Rate <= 0 {
			t.Fatalf("successful attempt has rate %g", a.Rate)
		}
	}
}

func TestRateCappedAt20Mbps(t *testing.T) {
	m := NewModel(Config{})
	g := dist.NewRNG(13)
	f := p2pFile(5000, workload.ProtoBitTorrent)
	for i := 0; i < 5000; i++ {
		if a := m.Attempt(g, f); a.Rate > DefaultConfig().MaxRate {
			t.Fatalf("rate %g exceeds cap", a.Rate)
		}
	}
}

// §4.1: P2P traffic overhead is 50–150 % above file size, ≈196 % overall.
func TestOverheadRatio(t *testing.T) {
	m := NewModel(Config{})
	g := dist.NewRNG(17)
	f := p2pFile(50, workload.ProtoBitTorrent)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		a := m.Attempt(g, f)
		if a.OverheadRatio < 1.5 || a.OverheadRatio > 2.5 {
			t.Fatalf("overhead %g outside [1.5, 2.5]", a.OverheadRatio)
		}
		sum += a.OverheadRatio
	}
	if mean := sum / float64(n); math.Abs(mean-1.96) > 0.08 {
		t.Errorf("mean overhead = %.3f, want ≈1.96", mean)
	}
}

// Fresh-attempt speeds should center near the paper's 25 KBps median for
// typical (unpopular, seeded) swarms.
func TestUnpopularSeededRateMedian(t *testing.T) {
	m := NewModel(Config{})
	g := dist.NewRNG(19)
	f := p2pFile(3, workload.ProtoBitTorrent)
	var rates []float64
	for len(rates) < 20000 {
		if a := m.Attempt(g, f); a.OK {
			rates = append(rates, a.Rate)
		}
	}
	// Median via selection on the sorted copy.
	med := median(rates)
	if med < 10*1024 || med > 70*1024 {
		t.Errorf("median seeded rate = %.0f KBps, want tens of KBps", med/1024)
	}
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

func TestZeroConfigUsesDefaults(t *testing.T) {
	m := NewModel(Config{})
	if m.cfg != DefaultConfig() {
		t.Fatal("zero config not replaced with defaults")
	}
}
