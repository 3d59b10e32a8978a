// Package swarm models peer-to-peer data swarms (BitTorrent and eMule) as
// download sources. A swarm's health scales with its file's popularity:
// unpopular files often have zero seeds, which is the dominant cause of
// pre-downloading failures in the paper (86 % of smart-AP failures, §5.2).
// Downloads from swarms also pay the tit-for-tat upload tax, making total
// traffic ≈196 % of file size (§4.1).
package swarm

import (
	"math"

	"odr/internal/dist"
	"odr/internal/workload"
)

// Attempt is the outcome of trying to download a file from its source.
// A failed attempt stagnates: practical systems time it out (Xuanfeng
// raises a failure after the progress stalls for one hour).
type Attempt struct {
	// OK reports whether the download can make progress. When false the
	// attempt stalls at (near) zero speed until the downloader times out.
	OK bool
	// Rate is the achievable steady download rate in bytes/second before
	// any downloader-side cap (access bandwidth, storage write ceiling).
	Rate float64
	// OverheadRatio is total network traffic divided by file size
	// (P2P tit-for-tat pushes this to ≈1.5–2.5; HTTP/FTP ≈1.07–1.10).
	OverheadRatio float64
	// Seeds is the number of seeds observed (P2P only; 0 for HTTP/FTP).
	Seeds int
}

// Model generates swarm download attempts. The zero value is not usable;
// construct with NewModel.
type Model struct {
	cfg Config
}

// Config tunes the swarm model. Defaults (DefaultConfig) are calibrated so
// that fresh-attempt failure ratios and speed distributions match the
// paper: ≈42 % failure on unpopular files, ≈2 % on popular, near 0 on
// highly popular; median fresh rate ≈25 KBps.
type Config struct {
	// SeedBase and SeedPerRequest give the expected seed count of a
	// swarm: E[seeds] = SeedBase + SeedPerRequest × weeklyRequests,
	// capped at SeedCap. Seed counts are Poisson distributed, so
	// unpopular files (≈2.8 requests/week) see P(seeds = 0) ≈ 0.45.
	SeedBase       float64
	SeedPerRequest float64
	SeedCap        float64
	// EMuleSeedFactor discounts eMule swarms relative to BitTorrent
	// (smaller network, fewer sources).
	EMuleSeedFactor float64
	// BaseRate is the median throughput of a minimally seeded swarm in
	// bytes/second. Swarm throughput in China's 2015 residential networks
	// was dominated by scarce per-peer upload capacity, so it grows only
	// mildly with seed count: rate = BaseRate × (1+seeds)^SeedExponent ×
	// lognormal noise. This keeps the AP benchmark's full-mix median
	// (≈27 KBps) close to the cloud's unpopular-dominated fresh-download
	// median (≈25 KBps), as Figure 13 shows.
	BaseRate float64
	// SeedExponent sub-linearly scales throughput with seed count.
	SeedExponent float64
	// RateSigma is the lognormal dispersion of swarm throughput.
	RateSigma float64
	// MaxRate caps what any swarm can deliver (source-side, before the
	// downloader's own access link).
	MaxRate float64
	// OverheadLo and OverheadHi bound the uniform tit-for-tat traffic
	// overhead ratio.
	OverheadLo, OverheadHi float64
	// StallProb is the probability a seeded swarm still stalls (flaky
	// peers, trackers, client bugs).
	StallProb float64
}

// DefaultConfig returns the paper-calibrated swarm parameters.
func DefaultConfig() Config {
	return Config{
		SeedBase:        0.35,
		SeedPerRequest:  0.15,
		SeedCap:         400,
		EMuleSeedFactor: 0.8,
		BaseRate:        20 * 1024,
		SeedExponent:    0.3,
		RateSigma:       1.1,
		MaxRate:         2.37 * 1024 * 1024, // ≈20 Mbps, the fastest observed
		OverheadLo:      1.5,
		OverheadHi:      2.5,
		StallProb:       0.005,
	}
}

// NewModel builds a swarm model; a zero Config is replaced by defaults.
func NewModel(cfg Config) *Model {
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	return &Model{cfg: cfg}
}

// ClientClass distinguishes downloader capability. Embedded clients
// (smart APs with 128-256 MB RAM, shared pre-downloader VMs) sustain few
// peer connections and harvest little of a large swarm; a full client (a
// laptop BitTorrent client) scales much further with swarm size. This is
// why the paper can simultaneously measure ≈27 KBps median pre-download
// speeds on APs (Figure 13) and report that users directly downloading
// highly popular files get cloud-class performance (§4.2, Figure 17).
type ClientClass uint8

// Client classes.
const (
	// ClientEmbedded is an AP or pre-downloader VM.
	ClientEmbedded ClientClass = iota
	// ClientFull is an end-user machine running a full P2P client.
	ClientFull
)

// FullClientSeedExponent replaces SeedExponent for full clients.
const FullClientSeedExponent = 0.75

// ExpectedSeeds returns the mean seed count for a file.
func (m *Model) ExpectedSeeds(f *workload.FileMeta) float64 {
	mean := m.cfg.SeedBase + m.cfg.SeedPerRequest*float64(f.WeeklyRequests)
	if f.Protocol == workload.ProtoEMule {
		mean *= m.cfg.EMuleSeedFactor
	}
	if mean > m.cfg.SeedCap {
		mean = m.cfg.SeedCap
	}
	return mean
}

// Attempt simulates one embedded-client download attempt of f from its
// swarm. It panics if the file is not P2P-hosted, which indicates a
// routing bug upstream.
func (m *Model) Attempt(g *dist.RNG, f *workload.FileMeta) Attempt {
	return m.AttemptAs(g, f, ClientEmbedded)
}

// AttemptAs simulates one download attempt with the given client class.
// Swarm health (seed availability, hence failure probability) is
// class-independent; achievable throughput on seed-rich swarms is not.
func (m *Model) AttemptAs(g *dist.RNG, f *workload.FileMeta, class ClientClass) Attempt {
	if !f.Protocol.IsP2P() {
		panic("swarm: Attempt on non-P2P file " + f.ID.String())
	}
	seeds := g.Poisson(m.ExpectedSeeds(f))
	a := Attempt{
		Seeds:         seeds,
		OverheadRatio: g.Uniform(m.cfg.OverheadLo, m.cfg.OverheadHi),
	}
	if seeds == 0 || g.Bool(m.cfg.StallProb) {
		return a // stalls: OK stays false, Rate stays 0
	}
	exp := m.cfg.SeedExponent
	if class == ClientFull {
		exp = FullClientSeedExponent
	}
	rate := m.cfg.BaseRate *
		math.Pow(1+float64(seeds), exp) *
		g.LogNormal(0, m.cfg.RateSigma)
	if rate > m.cfg.MaxRate {
		rate = m.cfg.MaxRate
	}
	a.OK = true
	a.Rate = rate
	return a
}
