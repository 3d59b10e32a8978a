package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"odr/internal/distrib"
	"odr/internal/trace"
	"odr/internal/workload"
)

// TestMain lets the test binary stand in for odrcoord: with
// ODRCOORD_TEST_MAIN=1 in its environment it runs main instead of the
// tests, so execRunner can re-exec it as a real worker process.
func TestMain(m *testing.M) {
	if os.Getenv("ODRCOORD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeTrace writes a small synthetic week as a bin trace and returns its
// path and record count.
func writeTrace(t *testing.T) (string, int64) {
	t.Helper()
	st, err := workload.GenerateStream(workload.DefaultConfig(40, 6), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteWorkloadBinStream(&buf, st.Requests()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	records, err := trace.BinRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, records
}

// TestWorkerRequest: the worker decodes the whole request from stdin,
// so every spec field reaches the partial's fingerprint intact; a request
// with a field the worker does not know is refused; the by-hand -window
// form builds the same request from flags.
func TestWorkerRequest(t *testing.T) {
	tracePath, records := writeTrace(t)
	want := distrib.WorkerRequest{
		TracePath: tracePath,
		Window:    distrib.Window{Offset: records / 2, Limit: records - records/2},
		Spec: distrib.WorkerSpec{
			Seed: 6, Shards: 2, Chunk: 64, CachePolicy: "lru",
			PoolBytes: 1 << 30, Faults: "0.25", Metrics: true,
		},
		PartialPath: filepath.Join(t.TempDir(), "w.odrp"),
	}
	in, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	req, err := workerRequest(bytes.NewReader(in), "", "", "", distrib.WorkerSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := runWorker(req, io.Discard); err != nil {
		t.Fatal(err)
	}
	p, err := distrib.ReadPartial(want.PartialPath)
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec != want.Spec.Fingerprint() || p.Window != want.Window || p.Metrics == nil {
		t.Fatalf("partial spec %s window %v, want %s window %v with metrics",
			p.Spec, p.Window, want.Spec.Fingerprint(), want.Window)
	}

	if _, err := workerRequest(strings.NewReader(`{"trace_path":"x","windows":3}`), "", "", "", distrib.WorkerSpec{}); err == nil ||
		!strings.Contains(err.Error(), "windows") {
		t.Fatalf("workerRequest(unknown field) = %v, want an error naming it", err)
	}
	if _, err := workerRequest(strings.NewReader(""), "", "", "", distrib.WorkerSpec{}); err == nil {
		t.Fatal("workerRequest accepted an empty stdin")
	}

	byHand, err := workerRequest(nil, tracePath, fmt.Sprintf("%d,%d", want.Window.Offset, want.Window.Limit),
		want.PartialPath, want.Spec)
	if err != nil || byHand != want {
		t.Fatalf("workerRequest(-window) = %+v, %v; want %+v", byHand, err, want)
	}
}

// TestExecRunnerHandshake drives a coordinated replay through real
// worker processes: each gets its request as JSON on stdin and reports
// heartbeats on stdout, window 1's first attempt crashes, and the merged
// digest must still match a single-process replay.
func TestExecRunnerHandshake(t *testing.T) {
	tracePath, _ := writeTrace(t)
	t.Setenv("ODRCOORD_TEST_MAIN", "1")
	spec := distrib.WorkerSpec{Seed: 6, CachePolicy: "lfu", Faults: "0.25"}
	var (
		mu  sync.Mutex
		log bytes.Buffer
	)
	co, err := distrib.New(distrib.Config{
		TracePath:     tracePath,
		Workers:       2,
		CheckpointDir: t.TempDir(),
		Spec:          spec,
		Runner:        execRunner{bin: os.Args[0]},
		CrashWindow:   1,
		Log: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&log, format+"\n", args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := co.Run(context.Background())
	if err != nil {
		t.Fatalf("coordinated run: %v\nlog:\n%s", err, log.String())
	}
	ref, err := distrib.SingleProcess(tracePath, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Digest() != ref.Digest() {
		t.Fatal("merged digest over worker processes differs from single-process")
	}
	if !strings.Contains(log.String(), "attempt 1/3 failed") || !strings.Contains(log.String(), "(attempt 2)") {
		t.Fatalf("window 1's first worker process did not crash and get retried; log:\n%s", log.String())
	}
}
