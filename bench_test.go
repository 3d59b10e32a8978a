package odr

// This file is the regeneration harness for the paper's evaluation: one
// benchmark per table/figure (see DESIGN.md's per-experiment index). Each
// benchmark rebuilds its experiment end to end — workload synthesis,
// simulation or replay, and metric extraction — and reports the headline
// measured-vs-paper numbers as custom benchmark metrics, so
//
//	go test -bench=Exp -benchmem
//
// prints the same rows/series the paper reports. Substrate
// micro-benchmarks follow at the bottom.

import (
	"testing"

	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/experiments"
	"odr/internal/sim"
	"odr/internal/stats"
	"odr/internal/storage"
	"odr/internal/workload"
)

// benchScale keeps the per-iteration cost of the experiment benchmarks
// moderate; the cmd/experiments binary runs the full default scale.
var benchLabConfig = experiments.Config{NumFiles: 8000, SampleSize: 1000, Seed: 20150228}

// runExp builds a fresh lab per iteration and reports the experiment's
// headline metrics via b.ReportMetric.
func runExp(b *testing.B, id string, keys ...string) {
	b.Helper()
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchLabConfig)
		rep = lab.ByID(id)
		if rep == nil {
			b.Fatalf("unknown experiment %s", id)
		}
	}
	for _, k := range keys {
		if v, ok := rep.Metrics[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// BenchmarkExpWorkloadStats regenerates the §3 workload table (EXP-T0).
func BenchmarkExpWorkloadStats(b *testing.B) {
	runExp(b, "T0", "video_request_share", "p2p_request_share",
		"unpopular_request_share", "highly_popular_request_share")
}

// BenchmarkExpFileSizeCDF regenerates Figure 5 (EXP-F5).
func BenchmarkExpFileSizeCDF(b *testing.B) {
	runExp(b, "F5", "median_mb", "mean_mb", "share_below_8mb")
}

// BenchmarkExpZipfFit regenerates Figure 6 (EXP-F6).
func BenchmarkExpZipfFit(b *testing.B) {
	runExp(b, "F6", "zipf_a", "avg_relative_error")
}

// BenchmarkExpSEFit regenerates Figure 7 (EXP-F7).
func BenchmarkExpSEFit(b *testing.B) {
	runExp(b, "F7", "avg_relative_error", "zipf_relative_error")
}

// BenchmarkExpCloudSpeeds regenerates Figure 8 (EXP-F8).
func BenchmarkExpCloudSpeeds(b *testing.B) {
	runExp(b, "F8", "pre_median_kbps", "fetch_median_kbps", "speedup_median")
}

// BenchmarkExpCloudDelays regenerates Figure 9 (EXP-F9).
func BenchmarkExpCloudDelays(b *testing.B) {
	runExp(b, "F9", "pre_median_min", "fetch_median_min", "e2e_median_min")
}

// BenchmarkExpFailureVsPopularity regenerates Figure 10 (EXP-F10).
func BenchmarkExpFailureVsPopularity(b *testing.B) {
	runExp(b, "F10", "overall_failure", "unpopular_failure",
		"cache_hit_ratio", "nocache_failure")
}

// BenchmarkExpBandwidthBurden regenerates Figure 11 (EXP-F11).
func BenchmarkExpBandwidthBurden(b *testing.B) {
	runExp(b, "F11", "peak_over_capacity", "peak_day",
		"highly_popular_burden_share", "rejected_fetch_share")
}

// BenchmarkExpAPHardware regenerates Table 1 (EXP-T1).
func BenchmarkExpAPHardware(b *testing.B) {
	runExp(b, "T1", "devices")
}

// BenchmarkExpAPSpeeds regenerates Figure 13 (EXP-F13).
func BenchmarkExpAPSpeeds(b *testing.B) {
	runExp(b, "F13", "median_kbps", "mean_kbps", "cloud_median_kbps")
}

// BenchmarkExpAPDelays regenerates Figure 14 (EXP-F14).
func BenchmarkExpAPDelays(b *testing.B) {
	runExp(b, "F14", "median_min", "mean_min", "cloud_median_min")
}

// BenchmarkExpDeviceFilesystem regenerates Table 2 (EXP-T2).
func BenchmarkExpDeviceFilesystem(b *testing.B) {
	runExp(b, "T2", "newifi_flash_ntfs_mbps", "newifi_flash_ext4_mbps",
		"newifi_uhdd_ntfs_mbps", "hiwifi_sd_fat_iowait")
}

// BenchmarkExpAPFailures regenerates the §5.2 failure analysis
// (EXP-AP-FAIL).
func BenchmarkExpAPFailures(b *testing.B) {
	runExp(b, "APFAIL", "overall_failure", "unpopular_failure", "cause_no_seeds")
}

// BenchmarkExpODR regenerates Figure 16 (EXP-F16).
func BenchmarkExpODR(b *testing.B) {
	runExp(b, "F16", "b1_baseline", "b1_odr", "b2_burden_reduction",
		"b3_baseline", "b3_odr", "b4_odr")
}

// BenchmarkExpODRFetch regenerates Figure 17 (EXP-F17).
func BenchmarkExpODRFetch(b *testing.B) {
	runExp(b, "F17", "odr_median_kbps", "baseline_median_kbps")
}

// BenchmarkExpAblations regenerates the ablation table (EXP-ABL).
func BenchmarkExpAblations(b *testing.B) {
	runExp(b, "ABL", "full_impeded", "noisp_impeded")
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkTraceGeneration measures synthetic-week synthesis throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := workload.Generate(workload.DefaultConfig(10000, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Requests) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkCloudWeek measures the discrete-event cloud simulation.
func BenchmarkCloudWeek(b *testing.B) {
	tr, err := workload.Generate(workload.DefaultConfig(10000, 7))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		c := cloud.New(cloud.DefaultConfig(10000.0/cloud.FullScaleFiles, uint64(i)), eng)
		c.Prewarm(tr.Files)
		c.RunTrace(tr)
	}
	b.ReportMetric(float64(len(tr.Requests)), "requests/iter")
}

// BenchmarkDecide measures the ODR decision engine itself.
func BenchmarkDecide(b *testing.B) {
	in := core.Input{
		Protocol: workload.ProtoBitTorrent,
		Band:     workload.BandHighlyPopular,
		Cached:   true,
		ISP:      workload.ISPUnicom,
		AccessBW: 2.5 * 1024 * 1024,
		HasAP:    true,
		APStorage: storage.Device{
			Type: storage.USBFlash, FS: storage.NTFS,
		},
		APCPUGHz: 0.58,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := core.Decide(in)
		if d.Route != core.RouteUserDevice {
			b.Fatal("unexpected decision")
		}
	}
}

// BenchmarkLRUPool measures the deduplicating LRU storage pool.
func BenchmarkLRUPool(b *testing.B) {
	p := cloud.NewStoragePool(1 << 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := workload.FileIDFromIndex(uint64(i % 100000))
		if !p.Lookup(id) {
			p.Add(id, 4<<20)
		}
	}
}

// BenchmarkZipfFitting measures the §3 popularity fitters.
func BenchmarkZipfFitting(b *testing.B) {
	tr, err := workload.Generate(workload.DefaultConfig(20000, 5))
	if err != nil {
		b.Fatal(err)
	}
	pop := workload.PopularityVector(tr.Files)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.FitZipf(pop); err != nil {
			b.Fatal(err)
		}
		if _, err := stats.FitSE(pop, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageModel measures the Table 2 write-path evaluation.
func BenchmarkStorageModel(b *testing.B) {
	wm := storage.WriteModel{CPUGHz: 0.58}
	d := storage.Device{Type: storage.USBFlash, FS: storage.NTFS}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rate := wm.MaxSpeed(d, 2.37*1024*1024)
		_ = wm.IOWait(d, rate)
	}
}

// BenchmarkExpHybrid regenerates the §7 hybrid-approach comparison
// (EXP-HYB).
func BenchmarkExpHybrid(b *testing.B) {
	runExp(b, "HYB", "hybrid_cloud_bytes", "odr_cloud_bytes",
		"hybrid_avail_nothot_min", "odr_avail_nothot_min")
}

// BenchmarkExpPoolSweep regenerates the storage-pool capacity ablation
// (EXP-POOL).
func BenchmarkExpPoolSweep(b *testing.B) {
	runExp(b, "POOL", "hit_pool_1pct", "hit_pool_100pct", "failure_pool_100pct")
}

// BenchmarkExpLEDBAT regenerates the §6.1 LEDBAT extension experiment
// (EXP-LED).
func BenchmarkExpLEDBAT(b *testing.B) {
	runExp(b, "LED", "greedy_peak_util", "ledbat_peak_util",
		"greedy_bg_gb", "ledbat_bg_gb")
}

// BenchmarkExpStreamEquivalence regenerates the streaming-pipeline
// cross-check (EXP-S1): the bounded-memory pipeline must reproduce the
// slice pipeline with zero diff.
func BenchmarkExpStreamEquivalence(b *testing.B) {
	runExp(b, "S1", "max_abs_diff", "tasks_diff")
}
