package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"odr/internal/replay"
	"odr/internal/smartap"
	"odr/internal/trace"
	"odr/internal/workload"
)

// weekFiles is the week workload's input size: the calibrated Xuanfeng
// week's generator at 27,500 files (about 206,000 requests, 38,000
// users). The coord workload replays the same trace.
const weekFiles = 27500

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// weekOutcome is what one week operation reports to the parent.
type weekOutcome struct {
	Records  int64   `json:"records"`
	Failures int64   `json:"failures"` // simulated download failures (domain outcomes)
	Digest   string  `json:"digest"`   // sha256 of the replay digest
	OpS      float64 `json:"op_s"`
	CPUS     float64 `json:"cpu_s"`
	// Traced runs only.
	Spans  []span             `json:"spans,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// weekOp is the week workload's timed operation on a populated stream
// (the set-up): generate the week's requests and write them as a bin trace
// (generation fanned out to shards workers), then replay the trace file
// with shards engine shards, the timeline on and metrics off, against the
// default static warm pool. With a recorder it also records spans, times
// the replay's reader and counts the replay's allocations. It returns the
// trace path, left on disk.
func weekOp(st *workload.StreamTrace, seed uint64, shards int, dir string, rec *recorder) (
	*weekOutcome, string, error) {
	out := &weekOutcome{}
	path := filepath.Join(dir, "week.bin")
	cpu0 := selfCPU()
	start := time.Now()

	if _, err := rec.time("trace.write", "week.op", func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		if err := trace.WriteWorkloadBinStream(bw, st.RequestsWorkers(shards)); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Close()
	}); err != nil {
		return nil, "", fmt.Errorf("write trace: %w", err)
	}

	var res *replay.ODRResult
	var reader *timedSource
	var ms0, ms1 runtime.MemStats
	replayS, err := rec.time("replay.run", "week.op", func() error {
		src, _, closer, err := trace.OpenWorkloadFile(path)
		if err != nil {
			return err
		}
		defer closer.Close()
		if rec != nil {
			src, reader = timeSource(src)
			runtime.ReadMemStats(&ms0)
		}
		res, err = replay.RunODRStream(src, st.Files, smartap.Benchmarked(), replay.Options{
			Seed: seed, Shards: shards,
			Timeline: &replay.TimelineConfig{Span: st.Span},
		})
		if rec != nil {
			runtime.ReadMemStats(&ms1)
		}
		return err
	})
	if err != nil {
		return nil, "", fmt.Errorf("replay: %w", err)
	}

	var digest string
	digestS, _ := rec.time("replay.digest", "week.op", func() error {
		digest = res.Digest()
		return nil
	})
	sum := sha256.Sum256([]byte(digest))
	out.OpS = time.Since(start).Seconds()
	out.CPUS = (selfCPU() - cpu0).Seconds()
	rec.add("week.op", "", start, time.Now())

	tot := res.Engine.Totals()
	out.Records = tot.Tasks
	out.Failures = tot.Failures
	out.Digest = hex.EncodeToString(sum[:])
	if rec != nil {
		out.Layers = map[string]float64{
			"replay.reader_share":   reader.busy.Seconds() / replayS,
			"replay.digest_s":       digestS,
			"replay.allocs_per_req": float64(ms1.Mallocs-ms0.Mallocs) / float64(tot.Tasks),
		}
	}
	return out, path, nil
}

// weekChildMain is the week workload's system-under-test process. Its
// set-up is start-up plus workload.GenerateStream, which populates the
// week's files and users; it then reports "ready", runs one operation
// (plus, traced, the week layers' probes), and prints its outcome as one
// JSON line.
func weekChildMain(args []string) error {
	fs := flag.NewFlagSet("week-child", flag.ContinueOnError)
	files := fs.Int("files", weekFiles, "generator file population")
	seed := fs.Uint64("seed", 1, "workload seed")
	shards := fs.Int("shards", runtime.NumCPU(), "generation workers and engine shards")
	dir := fs.String("dir", "", "scratch directory for the trace file")
	traced := fs.Bool("traced", false, "trace the operation and run the layer probes")
	setupOnly := fs.Bool("setup-only", false, "exit after reporting ready")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(*dir, "week-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var rec *recorder
	if *traced {
		rec = newRecorder()
	}
	var st *workload.StreamTrace
	populateS, err := rec.time("workload.populate", "week.setup", func() (err error) {
		st, err = workload.GenerateStream(workload.DefaultConfig(*files, *seed), 0)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Println("ready")
	if *setupOnly {
		return nil
	}
	out, path, err := weekOp(st, *seed, *shards, tmp, rec)
	if err != nil {
		return err
	}
	if *traced {
		out.Layers["workload.populate_s"] = populateS
		if err := weekProbes(st, path, *seed, *shards, out, rec); err != nil {
			return err
		}
		out.Spans = rec.spans
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// childRun is one finished week child.
type childRun struct {
	out    *weekOutcome
	setupS float64 // spawn until "ready"
	peakMB float64
}

// spawnWeek runs one week child process and collects its outcome.
func spawnWeek(c config, extra ...string) (*childRun, error) {
	args := append([]string{"week-child",
		"-files", strconv.Itoa(c.weekFiles),
		"-seed", strconv.FormatUint(c.seed, 10),
		"-shards", strconv.Itoa(c.nproc),
		"-dir", filepath.Join(c.work, "tmp"),
	}, extra...)
	cmd := command(filepath.Join(c.bin, "perfbench"), args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	cr := &childRun{}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if string(line) == "ready" {
			cr.setupS = time.Since(start).Seconds()
			continue
		}
		var o weekOutcome
		if err := json.Unmarshal(line, &o); err == nil {
			cr.out = &o
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("week child: %w", err)
	}
	_, cr.peakMB = exitUsage(cmd)
	if cr.setupS == 0 {
		return nil, fmt.Errorf("week child never reported ready")
	}
	return cr, nil
}

// runWeek is the week workload's end-to-end run: fresh child processes
// run the timed operation back to back for the run's seconds, and each
// replay digest must equal the single-process reference.
func runWeek(c config) (*result, error) {
	ref, err := reference(c, "week", func() (refDigest, error) { return weekReference(c.weekFiles, c.seed) })
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.notef("week: %d files, seed %d, %d shards/gen workers; reference %d records sha256:%s (%s)",
		c.weekFiles, c.seed, c.nproc, ref.Records, ref.Digest[:16], ref.source)
	var tput, cpu, rss, setup []float64
	var checkErr error
	start := time.Now()
	for ops := 0; ops == 0 || time.Since(start).Seconds() < c.seconds; ops++ {
		cr, err := spawnWeek(c)
		if err != nil {
			return res, err
		}
		o := cr.out
		if o == nil {
			return res, fmt.Errorf("week child printed no outcome")
		}
		setup = append(setup, cr.setupS)
		res.Attempted += ref.Records
		if err := ref.check(o.Records, o.Digest); err != nil {
			res.Failed += ref.Records
			checkErr = err
			continue
		}
		tput = append(tput, float64(o.Records)/o.OpS)
		cpu = append(cpu, o.CPUS*1e6/float64(o.Records))
		rss = append(rss, cr.peakMB)
		res.notef("week op %d: %.3fs, %d records (%d simulated download failures), %.1f MB peak RSS",
			len(tput), o.OpS, o.Records, o.Failures, cr.peakMB)
	}
	if checkErr != nil {
		return res, checkErr
	}
	for len(setup) < setupReps {
		cr, err := spawnWeek(c, "-setup-only")
		if err != nil {
			return res, err
		}
		setup = append(setup, cr.setupS)
	}
	res.notef("week: %d ops; set-up (s) median of %d", len(tput), len(setup))
	res.metric("throughput_rps", median(tput), "1/s")
	res.metric("cpu_us_per_req", median(cpu), "us")
	res.metric("peak_rss_mb", median(rss), "MB")
	res.metric("setup_s", median(setup), "s")
	return res, nil
}

// weekReference replays the generated week single-process — one shard,
// straight from the generator stream (times truncated to the trace's
// millisecond precision), no trace file — and digests the result.
func weekReference(files int, seed uint64) (refDigest, error) {
	st, err := workload.GenerateStream(workload.DefaultConfig(files, seed), 0)
	if err != nil {
		return refDigest{}, err
	}
	res, err := replay.RunODRStream(msTruncSource{st.Requests()}, st.Files, smartap.Benchmarked(),
		replay.Options{Seed: seed, Shards: 1})
	if err != nil {
		return refDigest{}, err
	}
	sum := sha256.Sum256([]byte(res.Digest()))
	return refDigest{Records: res.Engine.Totals().Tasks, Digest: hex.EncodeToString(sum[:])}, nil
}
