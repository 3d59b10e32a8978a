package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"odr/internal/core"
	"odr/internal/obs"
	"odr/internal/odrweb"
	"odr/internal/smartap"
	"odr/internal/workload"
)

// The traced serve battery: odrserver's content universe and the
// client's trace both come from the generator at serveFiles files and the
// run's seed, so every link resolves. nproc callers each POST
// serveBatch-item batch decide calls in a closed loop.
const (
	serveFiles  = 10000
	serveBatch  = 64
	serveWarmup = 2 * time.Second
)

// server is one running odrserver process; stop shuts it down and waits
// for it to exit.
type server struct {
	pid  int
	url  string
	stop func() error
}

// startServer spawns odrserver on a kernel-chosen port and waits until it
// answers /healthz.
func startServer(c config, dir string) (*server, error) {
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile)
	cmd := command(filepath.Join(c.bin, "odrserver"),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-files", strconv.Itoa(c.serveFiles), "-seed", strconv.FormatUint(c.seed, 10))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	stop := func() error {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			return <-done
		}
	}
	srv := &server{pid: cmd.Process.Pid, stop: stop}
	deadline := start.Add(120 * time.Second)
	for {
		select {
		case err := <-done:
			return nil, fmt.Errorf("odrserver exited during start-up: %v: %s", err, lastLines(stderr.String(), 5))
		default:
		}
		if raw, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(raw), "\n") {
			srv.url = "http://" + strings.TrimSpace(string(raw))
			resp, err := http.Get(srv.url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return srv, nil
				}
			}
		}
		if time.Now().After(deadline) {
			_ = stop()
			return nil, fmt.Errorf("odrserver not ready after %v", deadline.Sub(start))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// serveBodies turns the generated trace into batch decide bodies of
// serveBatch consecutive requests, each item carrying its own user and
// auxiliary info. Request i gets the AP the replay engine gives it,
// smartap.Benchmarked()[i%3], so the decisions asked of the server are the
// ones the replay makes.
func serveBodies(files int, seed uint64) ([][]byte, error) {
	st, err := workload.GenerateStream(workload.DefaultConfig(files, seed), 0)
	if err != nil {
		return nil, err
	}
	reqs, err := workload.Collect(st.Requests())
	if err != nil {
		return nil, err
	}
	aps := smartap.Benchmarked()
	var bodies [][]byte
	for i := 0; i+serveBatch <= len(reqs); i += serveBatch {
		items := make([]odrweb.BatchItem, serveBatch)
		for k, r := range reqs[i : i+serveBatch] {
			items[k] = odrweb.BatchItem{
				Link: r.File.SourceURL,
				User: "u" + strconv.Itoa(r.User.ID),
				Aux:  auxFor(r.User, aps[(i+k)%len(aps)]),
			}
		}
		b, err := json.Marshal(odrweb.BatchRequest{Items: items})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	if len(bodies) == 0 {
		return nil, fmt.Errorf("trace of %d requests fills no %d-item batch", len(reqs), serveBatch)
	}
	return bodies, nil
}

// auxFor maps a trace user and the AP serving the request onto the decide
// API's auxiliary info. Users who report no bandwidth get 1 MiB/s, as in
// cmd/odrload, since the API needs a positive access_bw.
func auxFor(u *workload.User, ap *smartap.AP) *odrweb.AuxInfo {
	bw := u.AccessBW
	if bw <= 0 {
		bw = 1 << 20
	}
	dev := ap.Device()
	return &odrweb.AuxInfo{ISP: u.ISP.String(), AccessBW: bw, HasAP: true,
		APStorage: dev.Type.String(), APFS: dev.FS.String(), APCPUGHz: ap.Spec().CPUGHz}
}

// batchAnswer is the part of odrweb.BatchResponse the check reads.
// Decoding only these fields keeps the load generator's CPU, which shares
// the host with the server, small.
type batchAnswer struct {
	Results []struct {
		Status   int `json:"status"`
		Decision *struct {
			Route string `json:"route"`
		} `json:"decision"`
	} `json:"results"`
}

// tallyCall accounts one batch call's items. An item is answered only
// when the call and the item both carry HTTP 200 and the item holds a
// decision naming a known route; a transport error, any other status
// (429 and 503 included), a missing decision or a result count that does
// not match the items counts as failed.
func tallyCall(status int, body []byte, items int, routes map[string]int) (ok, failed int) {
	if status != http.StatusOK {
		return 0, items
	}
	var resp batchAnswer
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != items {
		return 0, items
	}
	for _, r := range resp.Results {
		if r.Status != http.StatusOK || r.Decision == nil {
			failed++
			continue
		}
		if _, err := core.ParseRoute(r.Decision.Route); err != nil {
			failed++
			continue
		}
		routes[r.Decision.Route]++
		ok++
	}
	return ok, failed
}

// loopStats is what one closed-loop window measured. Only calls that
// complete inside the window count.
type loopStats struct {
	samples    []float64 // latency (ms) of each call
	ok, failed int64     // items
	seconds    float64   // window length
	serverCPU  float64   // seconds of odrserver CPU inside the window
	routes     map[string]int
	peakMB     float64
	metrics    [2]*obs.Snapshot // /metrics at window start and end (traced only)
}

// closedLoop drives srv with callers closed-loop callers for warmup plus
// window, each sending the next body as soon as its previous call
// returns. The server's CPU is read at the window edges; with scrape set,
// so is /metrics.
//
// The load generator runs on one P while it drives the server: its callers
// mostly wait on the network, and it shares the host's CPUs with the
// server it measures.
func closedLoop(srv *server, bodies [][]byte, callers int, warmup, window time.Duration,
	scrape bool, rec *recorder) (*loopStats, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := &http.Transport{
		MaxIdleConnsPerHost: callers,
		MaxConnsPerHost:     callers,
		DisableCompression:  true,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	scraper := &http.Client{Timeout: 10 * time.Second}
	defer scraper.CloseIdleConnections()
	url := srv.url + "/api/v1/decide/batch"

	start := time.Now()
	ws, we := start.Add(warmup), start.Add(warmup+window)
	ls := &loopStats{seconds: window.Seconds(), routes: map[string]int{}}

	var samplerErr error
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		fail := func(err error) {
			if err != nil && samplerErr == nil {
				samplerErr = err
			}
		}
		var cpu [2]time.Duration
		for k, edge := range []time.Time{ws, we} {
			time.Sleep(time.Until(edge))
			var err error
			cpu[k], err = procCPU(srv.pid)
			fail(err)
			if scrape {
				ls.metrics[k], err = scrapeMetrics(scraper, srv.url)
				fail(err)
			}
		}
		ls.serverCPU = (cpu[1] - cpu[0]).Seconds()
		peak, err := procPeakRSS(srv.pid)
		fail(err)
		ls.peakMB = peak
	}()

	type callerStats struct {
		samples    []float64
		ok, failed int64
		routes     map[string]int
		spans      []span
		err        error
	}
	per := make([]callerStats, callers)
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cs := &per[w]
			cs.routes = map[string]int{}
			for i := w; ; i += callers {
				body := bodies[i%len(bodies)]
				t0 := time.Now()
				status, resp, err := post(client, url, body)
				t1 := time.Now()
				if t1.After(we) {
					return
				}
				if t1.Before(ws) {
					continue
				}
				cs.samples = append(cs.samples, float64(t1.Sub(t0).Nanoseconds())/1e6)
				if rec != nil {
					cs.spans = append(cs.spans, span{Name: "serve.call", Parent: "serve.loop",
						Start: t0.Sub(rec.t0).Seconds(), End: t1.Sub(rec.t0).Seconds()})
				}
				if err != nil {
					cs.failed += serveBatch
					if cs.err == nil {
						cs.err = err
					}
					continue
				}
				ok, failed := tallyCall(status, resp, serveBatch, cs.routes)
				cs.ok += int64(ok)
				cs.failed += int64(failed)
			}
		}(w)
	}
	wg.Wait()
	sampler.Wait()
	var firstErr error
	for _, cs := range per {
		ls.samples = append(ls.samples, cs.samples...)
		ls.ok += cs.ok
		ls.failed += cs.failed
		for r, n := range cs.routes {
			ls.routes[r] += n
		}
		if rec != nil {
			rec.spans = append(rec.spans, cs.spans...)
		}
		if firstErr == nil {
			firstErr = cs.err
		}
	}
	if rec != nil {
		rec.add("serve.loop", "", ws, we)
	}
	if samplerErr != nil {
		return nil, samplerErr
	}
	if ls.ok+ls.failed == 0 {
		return nil, fmt.Errorf("no call completed inside the %v window (last error: %v)", window, firstErr)
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve call error:", firstErr)
	}
	return ls, nil
}

// post sends one batch call and returns its status and body.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrapeMetrics reads the server's /metrics JSON snapshot.
func scrapeMetrics(client *http.Client, base string) (*obs.Snapshot, error) {
	resp, err := client.Get(base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return obs.ParseSnapshot(resp.Body)
}

// checkServe applies the serve output check to one window.
func checkServe(ls *loopStats) error {
	if ls.failed > 0 {
		return fmt.Errorf("%w: %d of %d decisions failed", errCheck, ls.failed, ls.ok+ls.failed)
	}
	if len(ls.routes) < 3 {
		return fmt.Errorf("%w: only %d distinct routes answered (%v), want at least 3", errCheck, len(ls.routes), ls.routes)
	}
	return nil
}
