package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"odr/internal/distrib"
	"odr/internal/obs"
	"odr/internal/trace"
	"odr/internal/workload"
)

// The coord workload's operator spec: an LRU pool squeezed to 1/12 of the
// population's bytes (as the matrix smoke does), naive faults at 0.25,
// and metrics on.
const (
	coordPoolDivisor = 12
	coordPolicy      = "lru"
	coordFaults      = "0.25"
)

// writeWeekTrace generates the week at files/seed and writes it as a bin
// trace with workers generation workers. It returns the record count and
// the population's total bytes.
func writeWeekTrace(path string, files int, seed uint64, workers int) (int64, int64, error) {
	st, err := workload.GenerateStream(workload.DefaultConfig(files, seed), 0)
	if err != nil {
		return 0, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := trace.WriteWorkloadBinStream(bw, st.RequestsWorkers(workers)); err != nil {
		return 0, 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	var pop int64
	for _, fm := range st.Files {
		pop += fm.Size
	}
	return int64(st.TotalRequests()), pop, nil
}

// coordSpec is the replay configuration odrcoord runs under.
func coordSpec(c config, popBytes int64) distrib.WorkerSpec {
	return distrib.WorkerSpec{
		Seed:        c.seed,
		Shards:      c.nproc,
		CachePolicy: coordPolicy,
		PoolBytes:   popBytes / coordPoolDivisor,
		Faults:      coordFaults,
		Metrics:     true,
	}
}

// coordSetup writes the trace setupReps times (the set-up a user of the
// coordinator pays) and returns the per-repetition seconds.
func coordSetup(c config, path string) (records int64, popBytes int64, setup []float64, err error) {
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		records, popBytes, err = writeWeekTrace(path, c.weekFiles, c.seed, c.nproc)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("write trace: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	return records, popBytes, setup, nil
}

// coordRun is one finished odrcoord process.
type coordRun struct {
	wall   float64
	cpu    float64
	peakMB float64
	tasks  int64
	digest string // sha256 hex of the merged digest
	ckpt   string
}

// runCoordOp runs one coordinated replay: a fresh odrcoord process with
// nproc worker processes and a fresh checkpoint directory. Every stdout
// line is read as it arrives; the "window N ... done" lines become spans
// when rec is non-nil.
func runCoordOp(c config, tracePath string, spec distrib.WorkerSpec, ckpt string, rec *recorder) (*coordRun, error) {
	args := []string{
		"-trace", tracePath, "-checkpoint", ckpt,
		"-workers", strconv.Itoa(c.nproc),
		"-seed", strconv.FormatUint(spec.Seed, 10),
		"-shards", strconv.Itoa(spec.Shards),
		"-cache-policy", spec.CachePolicy,
		"-pool-bytes", strconv.FormatInt(spec.PoolBytes, 10),
		"-faults", spec.Faults,
		"-metrics", "json",
	}
	cmd := command(filepath.Join(c.bin, "odrcoord"), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cr := &coordRun{ckpt: ckpt}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if rec != nil && strings.HasPrefix(line, "coord: window ") {
			rec.add("coord.log: "+strings.TrimPrefix(line, "coord: "), "coord.op", start, time.Now())
		}
		if rest, ok := strings.CutPrefix(line, "distributed replay: "); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				cr.tasks, _ = strconv.ParseInt(f[0], 10, 64)
			}
		}
		if rest, ok := strings.CutPrefix(line, "merged digest:"); ok {
			cr.digest = strings.TrimPrefix(strings.TrimSpace(rest), "sha256:")
		}
	}
	werr := cmd.Wait()
	end := time.Now()
	cr.wall = end.Sub(start).Seconds()
	rec.add("coord.op", "", start, end)
	if werr != nil {
		return nil, fmt.Errorf("odrcoord: %w: %s", werr, lastLines(stderr.String(), 5))
	}
	cpu, peak := exitUsage(cmd)
	cr.cpu, cr.peakMB = cpu.Seconds(), peak
	// Metrics were on: the merged registry is dumped as JSON on stderr.
	snap, err := obs.ParseSnapshot(&stderr)
	if err != nil {
		return nil, fmt.Errorf("odrcoord metrics dump: %w", err)
	}
	if len(snap.Counters) == 0 {
		return nil, fmt.Errorf("odrcoord metrics dump holds no counters")
	}
	return cr, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// coordReference replays the trace single-process through
// distrib.SingleProcess, the path odrcoord -verify trusts.
func coordReference(tracePath string, spec distrib.WorkerSpec) (refDigest, error) {
	res, err := distrib.SingleProcess(tracePath, spec, nil)
	if err != nil {
		return refDigest{}, err
	}
	sum := sha256.Sum256([]byte(res.Digest()))
	return refDigest{Records: res.Engine.Totals().Tasks, Digest: hex.EncodeToString(sum[:])}, nil
}

// runCoord is the coord workload's end-to-end run: write the week trace
// (set-up), then replay it with odrcoord back to back for the run's
// seconds; every merged digest must equal the single-process reference.
func runCoord(c config) (*result, error) {
	dir, err := os.MkdirTemp(filepath.Join(c.work, "tmp"), "coord-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tracePath := filepath.Join(dir, "trace.bin")
	records, pop, setup, err := coordSetup(c, tracePath)
	if err != nil {
		return nil, err
	}
	spec := coordSpec(c, pop)
	ref, err := reference(c, "coord", func() (refDigest, error) { return coordReference(tracePath, spec) })
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.notef("coord: %d-record week trace (%d files, seed %d), %d workers, pool %d bytes (%s), faults %s; reference sha256:%s (%s)",
		records, c.weekFiles, c.seed, c.nproc, spec.PoolBytes, coordPolicy, coordFaults, ref.Digest[:16], ref.source)
	var tput, cpu, rss []float64
	var checkErr error
	start := time.Now()
	for op := 0; op == 0 || time.Since(start).Seconds() < c.seconds; op++ {
		cr, err := runCoordOp(c, tracePath, spec, filepath.Join(dir, fmt.Sprintf("ckpt-%d", op)), nil)
		if err != nil {
			return res, err
		}
		res.Attempted += records
		if err := ref.check(cr.tasks, cr.digest); err != nil {
			res.Failed += records
			checkErr = err
			continue
		}
		tput = append(tput, float64(records)/cr.wall)
		cpu = append(cpu, cr.cpu*1e6/float64(records))
		rss = append(rss, cr.peakMB)
		if err := os.RemoveAll(cr.ckpt); err != nil {
			return res, err
		}
	}
	if checkErr != nil {
		return res, checkErr
	}
	res.notef("coord: %d ops", len(tput))
	res.metric("throughput_rps", median(tput), "1/s")
	res.metric("cpu_us_per_req", median(cpu), "us")
	res.metric("peak_rss_mb", median(rss), "MB")
	res.metric("setup_s", median(setup), "s")
	return res, nil
}
