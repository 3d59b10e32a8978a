package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"odr/internal/backend"
	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/dist"
	"odr/internal/distrib"
	"odr/internal/ingest"
	"odr/internal/obs"
	"odr/internal/odrweb"
	"odr/internal/replay"
	"odr/internal/smartap"
	"odr/internal/trace"
	"odr/internal/workload"
)

// tracedServeWindow is each closed-loop window of the traced serve
// battery (two untraced, two traced, alternating).
const tracedServeWindow = 3 * time.Second

// runTraced is the traced battery. For each workload it times the
// operation once untraced and once traced, then times each layer's
// public calls separately, and reports every per-layer metric plus, per
// workload, trace.coverage (summed stage seconds over the untraced
// operation) and trace.overhead_pct (traced over untraced operation).
// The spans go to <work>/spans/.
func runTraced(c config) (*result, error) {
	res := newResult()
	rec := newRecorder()
	layers := map[string]float64{}
	steps := []struct {
		name string
		fn   func(config, *result, *recorder, map[string]float64) error
	}{
		{"week", tracedWeek},
		{"coord", tracedCoord},
		{"serve", tracedServe},
	}
	for _, s := range steps {
		start := time.Now()
		if err := s.fn(c, res, rec, layers); err != nil {
			return res, fmt.Errorf("%s battery: %w", s.name, err)
		}
		rec.add(s.name+".battery", "", start, time.Now())
	}
	for _, d := range perLayer {
		if v, ok := layers[d.name]; ok {
			res.metric(d.name, v, d.unit)
		}
	}
	path := filepath.Join(c.work, "spans", fmt.Sprintf("traced-%s-seed%d.json", c.workload, c.seed))
	if err := rec.write(path); err != nil {
		return res, err
	}
	res.notef("traced battery: %d spans written to %s", len(rec.spans), path)
	return res, nil
}

// tracedWeek runs one untraced and one traced week child; the traced
// child also runs the week layers' probes.
func tracedWeek(c config, res *result, rec *recorder, layers map[string]float64) error {
	u, err := spawnWeek(c)
	if err != nil {
		return err
	}
	offset := time.Since(rec.t0).Seconds()
	t, err := spawnWeek(c, "-traced")
	if err != nil {
		return err
	}
	if u.out == nil || t.out == nil || t.out.Layers == nil {
		return fmt.Errorf("week child printed no outcome")
	}
	rec.merge("week/", offset, t.out.Spans)
	res.Attempted += u.out.Records + t.out.Records
	if u.out.Digest != t.out.Digest || u.out.Records != t.out.Records {
		res.Failed += t.out.Records
		return fmt.Errorf("%w: traced week digest %s differs from untraced %s", errCheck, t.out.Digest, u.out.Digest)
	}
	for k, v := range t.out.Layers {
		layers[k] = v
	}
	stages := 0.0
	for _, k := range []string{"stage.gen_s", "stage.encode_s",
		"stage.decode_s", "stage.engine_s", "replay.timeline_s", "replay.digest_s"} {
		stages += t.out.Layers[k]
	}
	layers["trace.coverage.week"] = stages / u.out.OpS
	layers["trace.overhead_pct.week"] = 100 * (t.out.OpS - u.out.OpS) / u.out.OpS
	res.notef("week: untraced op %.3fs, traced op %.3fs, stage sum %.3fs; digests agree (file replay == slice replay at %d and 1 shards)",
		u.out.OpS, t.out.OpS, stages, c.nproc)
	return nil
}

// weekProbes times the week layers' public calls one at a time, on the
// traced operation's generated stream and trace file, and checks that the
// in-memory replays at shards and at one shard reproduce the operation's
// digest.
func weekProbes(st *workload.StreamTrace, path string, seed uint64, shards int,
	out *weekOutcome, rec *recorder) error {
	L := out.Layers
	n := st.TotalRequests()
	const parent = "week.probes"

	// Generation: drain the parallel and the sequential generator.
	var hashN, hash1 string
	genS, err := rec.time("workload.gen", parent, func() (err error) {
		hashN, _, err = trace.HashWorkload(st.RequestsWorkers(shards))
		return err
	})
	if err != nil {
		return err
	}
	gen1S, err := rec.time("workload.gen1", parent, func() (err error) {
		hash1, _, err = trace.HashWorkload(st.RequestsWorkers(1))
		return err
	})
	if err != nil {
		return err
	}
	if hashN != hash1 {
		return fmt.Errorf("generation at %d workers hashed %s, at 1 worker %s", shards, hashN, hash1)
	}
	L["stage.gen_s"] = genS
	L["workload.gen_rps"] = float64(n) / genS
	L["workload.gen_speedup"] = gen1S / genS

	// dist: the per-request substream reseed generation and replay pay.
	root := dist.NewRNG(seed).Split("requests")
	scratch := dist.NewRNG(0)
	var sink uint64
	splitS, _ := rec.time("dist.split", parent, func() error {
		for j := 0; j < n; j++ {
			root.Split64Into(scratch, uint64(j))
			sink += scratch.Seed()
		}
		return nil
	})
	L["dist.split_ns"] = splitS * 1e9 / float64(n)

	// Decode: drain the trace file.
	decodeS, err := rec.time("trace.decode", parent, func() error {
		src, _, closer, err := trace.OpenWorkloadFile(path)
		if err != nil {
			return err
		}
		defer closer.Close()
		for {
			if _, _, ok := src.Next(); !ok {
				return src.Err()
			}
		}
	})
	if err != nil {
		return err
	}
	L["stage.decode_s"] = decodeS
	L["trace.decode_rps"] = float64(n) / decodeS

	src, _, closer, err := trace.OpenWorkloadFile(path)
	if err != nil {
		return err
	}
	reqs, err := workload.Collect(src)
	closer.Close()
	if err != nil {
		return err
	}

	// Encode: write the collected records from a SliceSource.
	encodeS, err := rec.time("trace.encode", parent, func() error {
		f, err := os.Create(path + ".re")
		if err != nil {
			return err
		}
		defer os.Remove(f.Name())
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		if err := trace.WriteWorkloadBinStream(bw, workload.NewSliceSource(reqs)); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	L["stage.encode_s"] = encodeS
	L["trace.encode_rps"] = float64(n) / encodeS

	// Engine: replay the same records from memory at shards and 1 shard.
	aps := smartap.Benchmarked()
	var resN, res1 *replay.ODRResult
	engineS, err := rec.time("replay.engine", parent, func() (err error) {
		resN, err = replay.RunODRStream(workload.NewSliceSource(reqs), st.Files, aps,
			replay.Options{Seed: seed, Shards: shards})
		return err
	})
	if err != nil {
		return err
	}
	engine1S, err := rec.time("replay.engine1", parent, func() (err error) {
		res1, err = replay.RunODRStream(workload.NewSliceSource(reqs), st.Files, aps,
			replay.Options{Seed: seed, Shards: 1})
		return err
	})
	if err != nil {
		return err
	}
	for _, r := range []*replay.ODRResult{resN, res1} {
		sum := sha256.Sum256([]byte(r.Digest()))
		if got := hex.EncodeToString(sum[:]); got != out.Digest {
			return fmt.Errorf("in-memory replay digest %s differs from the trace-file replay's %s", got, out.Digest)
		}
	}
	L["stage.engine_s"] = engineS
	L["replay.engine_rps"] = float64(n) / engineS
	L["replay.shard_speedup"] = engine1S / engineS

	L["replay.timeline_s"], _ = rec.time("replay.timeline", parent, func() error {
		replay.BuildTimeline(resN.Tasks, replay.TimelineConfig{Span: st.Span})
		return nil
	})

	// core.Decide over the week's decision inputs, built as the replay
	// builds them (static popularity, cloud visibility, the request's AP).
	db := core.NewStaticDB(st.Files)
	cl := backend.NewCloud(st.Files, cloud.DefaultConfig(float64(len(st.Files))/cloud.FullScaleFiles, seed), seed)
	inputs := make([]core.Input, len(reqs))
	for i, r := range reqs {
		ap := aps[i%len(aps)]
		inputs[i] = core.Input{
			Protocol: r.File.Protocol, Band: db.Band(r.File.ID), Cached: cl.Contains(r.File.ID),
			ISP: r.User.ISP, AccessBW: r.User.AccessBW,
			HasAP: true, APStorage: ap.Device(), APCPUGHz: ap.Spec().CPUGHz,
		}
	}
	decideS, _ := rec.time("core.decide", parent, func() error {
		for i := range inputs {
			sink += uint64(core.Decide(inputs[i]).Route)
		}
		return nil
	})
	L["core.decide_ns"] = decideS * 1e9 / float64(len(inputs))

	// obs: the histogram record call replay metrics and ingest pay.
	h := obs.NewRegistry().HistogramScaled("perfbench_probe_seconds", 1e6)
	const observations = 1 << 22
	observeS, _ := rec.time("obs.observe", parent, func() error {
		for i := uint64(0); i < observations; i++ {
			h.Observe(i)
		}
		return nil
	})
	L["obs.observe_ns"] = observeS * 1e9 / observations
	probeSink = sink
	return nil
}

// probeSink keeps the probe loops' results live.
var probeSink uint64

// tracedCoord times one untraced and one traced odrcoord run, the
// single-process replay of the same trace, and each distrib stage
// separately: census and prefix passes, in-process windows, one exec'd
// window, partial writes and the merge.
func tracedCoord(c config, res *result, rec *recorder, layers map[string]float64) error {
	dir, err := os.MkdirTemp(filepath.Join(c.work, "tmp"), "coord-traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tracePath := filepath.Join(dir, "trace.bin")
	var records int64
	var pop int64
	if _, err := rec.time("coord.setup", "coord.battery", func() (err error) {
		records, pop, err = writeWeekTrace(tracePath, c.weekFiles, c.seed, c.nproc)
		return err
	}); err != nil {
		return err
	}
	spec := coordSpec(c, pop)
	const parent = "coord.probes"

	u, err := runCoordOp(c, tracePath, spec, filepath.Join(dir, "ckpt-untraced"), nil)
	if err != nil {
		return err
	}
	t, err := runCoordOp(c, tracePath, spec, filepath.Join(dir, "ckpt-traced"), rec)
	if err != nil {
		return err
	}
	var single *replay.ODRResult
	singleS, err := rec.time("distrib.single", parent, func() (err error) {
		single, err = distrib.SingleProcess(tracePath, spec, nil)
		return err
	})
	if err != nil {
		return err
	}
	sum := sha256.Sum256([]byte(single.Digest()))
	ref := hex.EncodeToString(sum[:])
	res.Attempted += 2 * records
	for _, r := range []*coordRun{u, t} {
		if r.digest != ref || r.tasks != records {
			res.Failed += records
			return fmt.Errorf("%w: merged digest %s (%d tasks) differs from single-process %s (%d records)",
				errCheck, r.digest, r.tasks, ref, records)
		}
	}
	layers["distrib.speedup_vs_single"] = singleS / u.wall
	layers["trace.overhead_pct.coord"] = 100 * (t.wall - u.wall) / u.wall

	m, err := distrib.LoadManifest(filepath.Join(u.ckpt, distrib.ManifestName))
	if err != nil {
		return err
	}
	plan := distrib.PlanWindows(records, len(m.Windows))
	var busy, decoded float64
	var partialBytes int64
	for i, w := range m.Windows {
		if w.Window() != plan[i] {
			return fmt.Errorf("manifest window %d is %v, PlanWindows gives %v", i, w.Window(), plan[i])
		}
		// A healthy run never retries a window.
		if w.Attempts != 1 {
			return fmt.Errorf("%w: window %d took %d attempts, want 1", errCheck, i, w.Attempts)
		}
		busy += w.Seconds
		decoded += float64(records + w.Offset + w.Limit) // census + prefix + window
		fi, err := os.Stat(filepath.Join(u.ckpt, w.Partial))
		if err != nil {
			return err
		}
		partialBytes += fi.Size()
	}
	nw := len(m.Windows)
	layers["distrib.window_s"] = busy / float64(nw)
	layers["distrib.parallelism"] = busy / u.wall
	layers["distrib.read_amplification"] = decoded / float64(records)
	layers["distrib.partial_bytes"] = float64(partialBytes)

	// Census: one full drain, paid once per window.
	census := workload.NewCensus()
	censusS, err := rec.time("distrib.census", parent, func() error {
		src, closer, err := trace.OpenWorkloadBinWindow(tracePath, 0, -1)
		if err != nil {
			return err
		}
		defer closer.Close()
		counted := census.Wrap(src)
		for {
			if _, _, ok := counted.Next(); !ok {
				return counted.Err()
			}
		}
	})
	if err != nil {
		return err
	}
	layers["distrib.census_s"] = censusS * float64(nw)

	// Cloud observation: the whole trace, then each window's prefix, under
	// the coord pool policy.
	ccfg := cloud.DefaultConfig(float64(len(census.Files()))/cloud.FullScaleFiles, c.seed)
	ccfg.CachePolicy = spec.CachePolicy
	ccfg.PoolCapacity = spec.PoolBytes
	observe := func(limit int64) (*backend.Cloud, error) {
		cl := backend.NewCloud(census.Files(), ccfg, c.seed)
		src, closer, err := trace.OpenWorkloadBinWindow(tracePath, 0, limit)
		if err != nil {
			return nil, err
		}
		defer closer.Close()
		for {
			i, req, ok := src.Next()
			if !ok {
				return cl, src.Err()
			}
			cl.ObserveAt(i, req.File, req.Time)
		}
	}
	var cl *backend.Cloud
	observeS, err := rec.time("cloud.observe", parent, func() (err error) {
		cl, err = observe(-1)
		return err
	})
	if err != nil {
		return err
	}
	ps := cl.PoolStats()
	layers["cloud.observe_rps"] = float64(records) / observeS
	layers["cloud.hit_ratio"] = float64(ps.Hits) / math.Max(1, float64(ps.Hits+ps.Misses))
	layers["cloud.evictions_per_req"] = float64(ps.Evictions) / float64(records)
	var prefixS float64
	for _, w := range plan {
		if w.Offset == 0 {
			continue
		}
		s, err := rec.time("distrib.prefix", parent, func() error {
			_, err := observe(w.Offset)
			return err
		})
		if err != nil {
			return err
		}
		prefixS += s
	}
	layers["distrib.prefix_s"] = prefixS

	// Windows in process, then window 0 exec'd as odrcoord does it.
	inproc := filepath.Join(dir, "inproc")
	if err := os.MkdirAll(inproc, 0o755); err != nil {
		return err
	}
	partials := make([]string, nw)
	inWorker := func(i int) (float64, error) {
		partials[i] = filepath.Join(inproc, fmt.Sprintf("window-%05d.odrp", i))
		return rec.time("distrib.worker", parent, func() error {
			return distrib.RunWorker(context.Background(), distrib.WorkerRequest{
				TracePath: tracePath, Window: plan[i], Spec: spec, PartialPath: partials[i],
			}, nil)
		})
	}
	// Window 0 runs spawnReps times each way, alternating, and spawn_s
	// compares the medians: one pair differs by more than the spawn cost.
	const spawnReps = 3
	var in0, ex0 []float64
	for r := 0; r < spawnReps; r++ {
		s, err := inWorker(0)
		if err != nil {
			return err
		}
		in0 = append(in0, s)
		s, err = rec.time("distrib.exec_worker", parent, func() error {
			return execWorker(c, tracePath, plan[0], spec, filepath.Join(dir, "exec-window.odrp"))
		})
		if err != nil {
			return err
		}
		ex0 = append(ex0, s)
	}
	layers["distrib.spawn_s"] = median(ex0) - median(in0)
	workerS := median(in0)
	for i := 1; i < nw; i++ {
		s, err := inWorker(i)
		if err != nil {
			return err
		}
		workerS += s
	}

	var writeS float64
	for i, p := range partials {
		part, err := distrib.ReadPartial(p)
		if err != nil {
			return err
		}
		s, err := rec.time("distrib.partial_write", parent, func() error {
			return distrib.WritePartial(filepath.Join(dir, fmt.Sprintf("rewrite-%d.odrp", i)), part)
		})
		if err != nil {
			return err
		}
		writeS += s
	}
	layers["distrib.partial_write_s"] = writeS

	var merged *distrib.Merged
	mergeS, err := rec.time("distrib.merge", parent, func() (err error) {
		parts := make([]*distrib.Partial, len(partials))
		for i, p := range partials {
			if parts[i], err = distrib.ReadPartial(p); err != nil {
				return err
			}
		}
		merged, err = distrib.MergePartials(parts)
		return err
	})
	if err != nil {
		return err
	}
	msum := sha256.Sum256([]byte(merged.Digest()))
	if got := hex.EncodeToString(msum[:]); got != ref {
		return fmt.Errorf("%w: in-process merged digest %s differs from single-process %s", errCheck, got, ref)
	}
	layers["distrib.merge_s"] = mergeS

	stages := (workerS+layers["distrib.spawn_s"]*float64(nw))/float64(c.nproc) + mergeS
	layers["trace.coverage.coord"] = stages / u.wall
	res.notef("coord: untraced op %.3fs, traced op %.3fs, single-process %.3fs; %d windows, 0 retries (checked), critical-path stage sum %.3fs; merged digests == single-process",
		u.wall, t.wall, singleS, nw, stages)
	return nil
}

// execWorker runs one window as an odrcoord worker process, with the
// arguments odrcoord passes its own workers.
func execWorker(c config, tracePath string, w distrib.Window, spec distrib.WorkerSpec, out string) error {
	cmd := command(filepath.Join(c.bin, "odrcoord"), "-worker",
		"-trace", tracePath, "-window", fmt.Sprintf("%d,%d", w.Offset, w.Limit), "-out", out,
		"-seed", strconv.FormatUint(spec.Seed, 10), "-shards", strconv.Itoa(spec.Shards), "-chunk", "0",
		"-cache-policy", spec.CachePolicy, "-pool-bytes", strconv.FormatInt(spec.PoolBytes, 10),
		"-faults", spec.Faults, "-worker-metrics")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("odrcoord -worker: %w: %s", err, lastLines(stderr.String(), 3))
	}
	return nil
}

// tracedServe measures alternating untraced and traced closed-loop
// windows on a fresh odrserver, scraping /metrics around the traced ones,
// then times
// the handler in process and the client's JSON codec.
func tracedServe(c config, res *result, rec *recorder, layers map[string]float64) error {
	dir, err := os.MkdirTemp(filepath.Join(c.work, "tmp"), "serve-traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := startServer(c, dir)
	if err != nil {
		return err
	}
	defer srv.stop()
	bodies, err := serveBodies(c.serveFiles, c.seed)
	if err != nil {
		return err
	}
	// Untraced and traced windows alternate, so drift in the host's speed
	// does not read as tracing overhead.
	var u, t []*loopStats
	var uS, tS []float64
	for i := 0; i < 4; i++ {
		warmup := time.Duration(0)
		if i == 0 {
			warmup = serveWarmup
		}
		traced := i%2 == 1
		var r *recorder
		if traced {
			r = rec
		}
		ls, err := closedLoop(srv, bodies, c.nproc, warmup, tracedServeWindow, traced, r)
		if err != nil {
			return err
		}
		res.Attempted += ls.ok + ls.failed
		res.Failed += ls.failed
		if err := checkServe(ls); err != nil {
			return err
		}
		if traced {
			t, tS = append(t, ls), append(tS, ls.samples...)
		} else {
			u, uS = append(u, ls), append(uS, ls.samples...)
		}
	}
	uMean, tMean := mean(uS), mean(tS)
	uLat, tLat := summarize(uS), summarize(tS)
	layers["trace.overhead_pct.serve"] = 100 * (tMean - uMean) / uMean

	// /metrics deltas across the traced windows.
	hist := func(name string) (count, sum float64) {
		for _, ls := range t {
			a, b := ls.metrics[1].Histograms[name], ls.metrics[0].Histograms[name]
			count += float64(a.Count - b.Count)
			sum += float64(a.Sum - b.Sum)
		}
		return count, sum
	}
	counters := func(prefix string) float64 {
		var v float64
		for _, ls := range t {
			for name, n := range ls.metrics[1].Counters {
				if strings.HasPrefix(name, prefix) {
					v += float64(n - ls.metrics[0].Counters[name])
				}
			}
		}
		return v
	}
	var serverCPU, wall float64
	for _, ls := range t {
		serverCPU += ls.serverCPU
		wall += ls.seconds
	}
	calls, callUS := hist(obs.Label("odr_http_request_seconds", "path", "/api/v1/decide/batch"))
	batches, decideUS := hist("odr_ingest_decide_seconds")
	batchCount, batchItems := hist("odr_ingest_batch_size")
	admitted, rejected := counters("odr_ingest_admitted_total"), counters("odr_ingest_rejected_total")
	if calls == 0 || batches == 0 || batchCount == 0 {
		return fmt.Errorf("/metrics recorded no batch traffic in the traced window")
	}
	if rejected != 0 {
		return fmt.Errorf("%w: ingest rejected %.0f of %.0f items", errCheck, rejected, admitted+rejected)
	}
	serverMS := callUS / calls / 1e3
	layers["odrweb.server_ms_per_call"] = serverMS
	layers["ingest.decide_ms_per_batch"] = decideUS / batches / 1e3
	layers["ingest.batch_size_mean"] = batchItems / batchCount
	layers["client.net_ms"] = tLat.P50 - serverMS
	layers["server.cpu_util"] = serverCPU / (float64(c.nproc) * wall)

	handlerUS, respBody, err := handlerProbe(c, bodies, rec)
	if err != nil {
		return err
	}
	layers["odrweb.handler_us_per_call"] = handlerUS
	var req odrweb.BatchRequest
	if err := json.Unmarshal(bodies[0], &req); err != nil {
		return err
	}
	const codecCalls = 500
	codecS, err := rec.time("client.codec", "serve.probes", func() error {
		for i := 0; i < codecCalls; i++ {
			if _, err := json.Marshal(&req); err != nil {
				return err
			}
			var resp batchAnswer
			if err := json.Unmarshal(respBody, &resp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	codecUS := codecS * 1e6 / codecCalls
	layers["client.codec_us_per_call"] = codecUS
	layers["trace.coverage.serve"] = (handlerUS + codecUS) / 1e3 / uLat.P50
	res.notef("serve: untraced %v; traced %v (ms); server %.3f ms/call, handler %.1f us/call, codec %.1f us/call; ingest admitted %.0f, rejected 0 (checked)",
		uLat, tLat, serverMS, handlerUS, codecUS, admitted)
	return nil
}

// handlerProbe builds the service in process and times
// (*odrweb.Server).ServeHTTP on the workload's bodies. It returns the mean
// microseconds per call and one response body. The set-up must match
// buildServer in cmd/odrserver (default policy and pool, "server-warm"
// prewarm), which a main package cannot export.
func handlerProbe(c config, bodies [][]byte, rec *recorder) (float64, []byte, error) {
	tr, err := workload.Generate(workload.DefaultConfig(c.serveFiles, c.seed))
	if err != nil {
		return 0, nil, err
	}
	db := cloud.NewContentDB()
	db.SeedPopularity(tr.Files)
	pol, err := cloud.NewPolicy("")
	if err != nil {
		return 0, nil, err
	}
	pool := cloud.NewStoragePoolPolicy(int64(cloud.FullPoolBytes), len(tr.Files), pol)
	warm := dist.NewRNG(c.seed).Split("server-warm")
	for _, f := range tr.Files {
		if warm.Bool(backend.WarmProbs[f.Band()]) {
			pool.AddMeta(f)
		}
	}
	srv := odrweb.NewServer(&core.Advisor{DB: db, Cache: pool},
		odrweb.FallbackResolver{Primary: odrweb.NewMapResolver(tr.Files)}, log.New(io.Discard, "", 0))
	srv.StartIngest(ingest.Config{})
	defer srv.CloseIngest(context.Background())

	routes := map[string]int{}
	var last []byte
	calls := 0
	const probeTime = 2 * time.Second
	s, err := rec.time("odrweb.handler", "serve.probes", func() error {
		start := time.Now()
		for ; calls < len(bodies) && (calls < 100 || time.Since(start) < probeTime); calls++ {
			req := httptest.NewRequest(http.MethodPost, "/api/v1/decide/batch", bytes.NewReader(bodies[calls]))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if ok, failed := tallyCall(w.Code, w.Body.Bytes(), serveBatch, routes); failed > 0 || ok != serveBatch {
				return fmt.Errorf("%w: in-process handler answered %d of %d items (HTTP %d)", errCheck, ok, serveBatch, w.Code)
			}
			last = w.Body.Bytes()
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return s * 1e6 / float64(calls), last, nil
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
