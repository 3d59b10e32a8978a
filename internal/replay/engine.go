package replay

import (
	"fmt"
	"runtime"
	"sync"

	"odr/internal/backend"
	"odr/internal/dist"
	"odr/internal/obs"
	"odr/internal/smartap"
	"odr/internal/workload"
)

// The sharded replay engine reads a request stream on the caller's
// goroutine and fans it out by user across N shard workers. Its output is
// byte-identical for every shard count, chunk size, pooling mode and
// GOMAXPROCS because no request outcome depends on execution order:
//
//   - each request draws from its own RNG substream keyed by the
//     request's GLOBAL index (root.Split64(i)), never from a shared
//     sequential stream;
//   - backend state is immutable after construction or memoized as a
//     pure function of (seed, file), with cross-request cache visibility
//     gated by request index (see backend.Cloud.ObserveAt, which the
//     reader calls in index order before dispatching each request), so
//     "who ran first" is unobservable;
//   - every shard writes its tasks in place at their global indices in
//     task pages the reader allocated before dispatch, counts into its
//     own ShardTotals, and backend ledgers use atomic integers — all
//     merges are associative integer sums taken in shard order.
//
// All floating-point aggregation (ratios, means, stats.Sample) happens
// afterwards, sequentially over the merged task slice in index order.

// ShardTotals is one shard's local accumulator: plain integer counters a
// shard increments without synchronization and the engine merges in
// shard order, so the merged totals are identical for any interleaving.
type ShardTotals struct {
	// Tasks is how many requests the shard replayed.
	Tasks int64
	// Failures is how many of them never obtained their file.
	Failures int64
}

// EngineStats describes how a replay was executed and what each shard
// contributed. It is diagnostic: the task slice is the ground truth.
type EngineStats struct {
	// Shards is the shard count the run actually used.
	Shards int
	// PerShard holds each shard's local totals, indexed by shard.
	PerShard []ShardTotals
}

// Totals merges the per-shard accumulators.
func (s EngineStats) Totals() ShardTotals {
	var t ShardTotals
	for _, p := range s.PerShard {
		t.Tasks += p.Tasks
		t.Failures += p.Failures
	}
	return t
}

// StreamTuning tunes the stream transport's batching and pooling. The
// zero value selects defaults. Tuning is strictly a performance knob:
// replay output is byte-identical for every chunk size and with pooling
// on or off (pinned by TestReplayDeterminism).
type StreamTuning struct {
	// Chunk is how many requests the reader packs into one batch before
	// handing it to a shard worker. Larger chunks amortize channel
	// operations over more requests at the cost of latency before the
	// first task completes and a larger in-flight window. Non-positive
	// selects DefaultStreamChunk.
	Chunk int
	// DisablePooling turns off batch recycling: every batch is freshly
	// allocated and released batches are left to the garbage collector.
	// It exists so tests (and suspicious operators) can pin that pooling
	// is behavior-neutral; production runs should leave it off.
	DisablePooling bool
	// GenWorkers is how many pipelined workers regenerate request chunks
	// ahead of the reader when the stream is produced by the workload
	// generator (StreamTrace.RequestsWorkers). Non-positive selects
	// GOMAXPROCS; 1 forces the sequential source. The engine itself never
	// reads it — generation happens in the source, before requests reach
	// the transport — but it rides on StreamTuning so every command and
	// scenario spec tunes generation and transport in one place. Worker
	// count never changes replay results.
	GenWorkers int
}

// DefaultStreamChunk is the stream transport's default batch size.
const DefaultStreamChunk = 512

// streamBatchDepth is how many batches circulate per shard: the reader
// allocates a shard's batches as it needs them, up to this many, so at
// any moment a shard has at most streamBatchDepth batches between the
// reader's hands, its work queue, and its worker. Together with the chunk
// size it caps how far the reader can run ahead, keeping reader-side
// memory constant in stream length.
const streamBatchDepth = 8

// chunkOf resolves the effective batch size.
func (t StreamTuning) chunkOf() int {
	if t.Chunk > 0 {
		return t.Chunk
	}
	return DefaultStreamChunk
}

// poisonReleasedBatches, when set (tests only), makes workers overwrite
// every cell of a batch with an obviously-wrong value before releasing it
// to the free list. Any code that wrongly retains a cell across release —
// the bug class object pooling invites — then dereferences a nil user or
// replays a negative index instead of silently reading stale data.
var poisonReleasedBatches = false

// poisonIndex is the request index poisoned cells carry.
const poisonIndex = -0x5D5D5D5D

// engineObs threads an optional observability destination through a
// sharded run. Each shard records into its own private registry via a
// recorder built by rec — per-shard recorders may therefore cache label
// lookups in plain maps without locking — and the engine merges the shard
// registries into dst after the last worker exits, then adds the engine
// totals. Because every recorded quantity is an integer accumulated by
// commutative sums and obs.Registry.Merge is order-independent, the
// merged registry is identical for every shard count and interleaving,
// and recording never perturbs task outcomes: replay digests are
// byte-identical with eo nil or set (pinned by TestReplayDeterminism).
type engineObs[T any] struct {
	// dst receives the merged per-shard registries plus engine totals.
	dst *obs.Registry
	// rec builds one shard's recorder over that shard's registry; it is
	// called once per shard, and the returned func sees every (task, ok)
	// pair the shard produced, in the shard's execution order.
	rec func(reg *obs.Registry) func(task *T, ok bool)
}

// shardRegistries allocates one registry per shard, or nil when the run
// is unobserved.
func (eo *engineObs[T]) shardRegistries(shards int) []*obs.Registry {
	if eo == nil {
		return nil
	}
	regs := make([]*obs.Registry, shards)
	for s := range regs {
		regs[s] = obs.NewRegistry()
	}
	return regs
}

// recorder builds shard s's recorder, or nil for an unobserved run.
func (eo *engineObs[T]) recorder(regs []*obs.Registry, s int) func(*T, bool) {
	if eo == nil || eo.rec == nil {
		return nil
	}
	return eo.rec(regs[s])
}

// finish merges the shard registries into dst (in shard order, though any
// order yields the same result) and adds the engine's own totals.
func (eo *engineObs[T]) finish(regs []*obs.Registry, stats EngineStats) {
	if eo == nil {
		return
	}
	for _, r := range regs {
		eo.dst.Merge(r)
	}
	t := stats.Totals()
	eo.dst.Counter("odr_replay_tasks_total").Add(uint64(t.Tasks))
	eo.dst.Counter("odr_replay_failures_total").Add(uint64(t.Failures))
}

// userShard places a user on a shard. Fibonacci hashing decorrelates the
// shard from the round-robin structure of user IDs and AP assignment.
func userShard(u *workload.User, shards int) int {
	h := uint64(uint(u.ID)) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(shards))
}

// streamCell carries one request from the reader to a shard worker,
// with dst pointing at the request's slot in the task pages. The reader
// fills cells before the batch's channel send and the owning worker reads
// them before releasing the batch — every access is ordered by the
// channel operations.
type streamCell[T any] struct {
	i    int
	wreq workload.Request
	dst  *T
}

// bindRequest points the reused backend request at one replay request,
// reseeding the worker's scratch RNG to the exact substream
// root.Split64(i) would return. Reset-then-fill keeps the pooled object's
// contract obvious: nothing from the previous request survives.
func bindRequest(req *backend.Request, rng *dist.RNG, root *dist.RNG,
	i int, wreq workload.Request, aps []*smartap.AP) {
	req.Reset()
	root.Split64Into(rng, uint64(i))
	req.Index = i
	req.User = wreq.User
	req.File = wreq.File
	req.RNG = rng
	req.EnvCap = EnvCap
	req.When = wreq.Time
	if len(aps) > 0 {
		req.AP = aps[i%len(aps)]
	}
}

// minTaskPage is the smallest task page the reader allocates when the
// source does not know its length.
const minTaskPage = 4096

// runShardedStream replays a RequestSource across user-partitioned
// shards: a single reader goroutine (the caller) pulls requests in
// global-index order, invokes the observe hook (cloud observation) on
// each, and packs them into fixed-size batches fanned out to per-shard
// work channels. fn receives the request's local index, the raw workload
// request, the backend-layer request (environment-bound, with its own RNG
// substream), and the task slot to fill in place; it returns whether the
// task succeeded. The request object and its RNG are pooled per shard —
// fn must not retain them past the call. aps may be empty for AP-less
// replays (the request's AP is then nil).
//
// base offsets every request's GLOBAL index: the source yields local
// indices 0..n-1 (every RequestSource re-bases at 0), and the engine
// binds request k to global index base+k — its RNG substream, AP
// assignment, and cloud-visibility gate are exactly those the same record
// would get in a full-stream replay where it sits at position base+k.
// This is what lets a window of a larger trace replay in isolation and
// still merge digest-identically (see internal/distrib). observe and fn
// still receive the local index; callers that need the global one add
// base themselves.
//
// Non-positive shards selects GOMAXPROCS, and a source that knows its
// length (workload.Sizer) never gets more shards than requests.
//
// The steady state allocates nothing per request. Each shard's batches
// are allocated on first need, up to streamBatchDepth, and then circulate
// between its work queue and a free list; workers reuse one
// backend.Request and one scratch RNG each, reseeded per request from the
// index-keyed substream. Tasks are written in place: the reader allocates
// task pages ahead of dispatch and hands each cell a pointer to its
// request's slot, so a sized source gets one page of exactly its length
// that becomes the result without a copy. Shards own disjoint slots, so
// the output is byte-identical for any shard count, chunk size, pooling
// mode, and GOMAXPROCS.
func runShardedStream[T any](src workload.RequestSource, aps []*smartap.AP,
	seed uint64, base, shards int, tune StreamTuning, eo *engineObs[T],
	observe func(i int, wreq workload.Request),
	fn func(i int, wreq workload.Request, req *backend.Request, task *T) bool,
) ([]T, EngineStats, error) {
	hint := 0
	if sz, ok := src.(workload.Sizer); ok {
		hint = sz.TotalRequests()
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if hint > 0 && shards > hint {
		shards = hint
	}
	chunk := tune.chunkOf()
	root := dist.NewRNG(seed).Split("replay-engine")
	stats := EngineStats{Shards: shards, PerShard: make([]ShardTotals, shards)}
	regs := eo.shardRegistries(shards)
	// The in-flight high-water mark depends on goroutine scheduling, and
	// the effective chunk is a transport knob, not a replay outcome; both
	// are recorded straight into the destination registry and excluded
	// from the shard-merge determinism contract (a nil eo yields nil
	// gauges).
	var inflight *obs.Gauge
	if eo != nil {
		inflight = eo.dst.Gauge(MetricInflightPeak)
		eo.dst.Gauge(MetricStreamChunk).Set(int64(chunk))
	}

	work := make([]chan []streamCell[T], shards)
	free := make([]chan []streamCell[T], shards)
	for s := range work {
		work[s] = make(chan []streamCell[T], streamBatchDepth)
		if !tune.DisablePooling {
			// Room for the shard's whole batch budget: the worker's release
			// below never blocks, and the reader's receive is the
			// transport's only backpressure point.
			free[s] = make(chan []streamCell[T], streamBatchDepth)
		}
	}

	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			totals := &stats.PerShard[s]
			record := eo.recorder(regs, s)
			req := &backend.Request{}
			rng := dist.NewRNG(0)
			for batch := range work[s] {
				for k := range batch {
					c := &batch[k]
					bindRequest(req, rng, root, base+c.i, c.wreq, aps)
					ok := fn(c.i, c.wreq, req, c.dst)
					totals.Tasks++
					if !ok {
						totals.Failures++
					}
					if record != nil {
						record(c.dst, ok)
					}
				}
				if poisonReleasedBatches {
					for k := range batch {
						batch[k] = streamCell[T]{i: poisonIndex}
					}
				}
				if free[s] != nil {
					free[s] <- batch[:0]
				}
			}
		}(s)
	}

	shut := func() {
		for _, ch := range work {
			close(ch)
		}
		wg.Wait()
	}

	cur := make([][]streamCell[T], shards)
	made := make([]int, shards)
	// batchFor returns an empty batch for shard s: a recycled one when the
	// worker has released one, a new one while the shard is under its
	// budget (or pooling is off), and otherwise the next release.
	batchFor := func(s int) []streamCell[T] {
		if free[s] == nil {
			return make([]streamCell[T], 0, chunk)
		}
		select {
		case b := <-free[s]:
			return b
		default:
		}
		if made[s] < streamBatchDepth {
			made[s]++
			return make([]streamCell[T], 0, chunk)
		}
		return <-free[s]
	}
	flush := func(s int) {
		if len(cur[s]) == 0 {
			return
		}
		if inflight != nil {
			inflight.Max(int64((len(work[s]) + 1) * chunk))
		}
		work[s] <- cur[s]
		cur[s] = nil
	}
	// Task pages: page holds the slots of requests [pageBase,
	// pageBase+len(page)). The first page is the source's full length when
	// it knows it; otherwise pages double the space so far.
	var pages [][]T
	var page []T
	pageBase, n := 0, 0
	for {
		i, wreq, ok := src.Next()
		if !ok {
			break
		}
		if i != n {
			shut()
			return nil, stats, fmt.Errorf("replay: source yielded index %d, want %d", i, n)
		}
		if observe != nil {
			observe(i, wreq)
		}
		if i-pageBase == len(page) {
			size := max(n, minTaskPage)
			if n == 0 && hint > 0 {
				size = hint
			}
			pageBase, page = n, make([]T, size)
			pages = append(pages, page)
		}
		n++
		s := userShard(wreq.User, shards)
		if cur[s] == nil {
			cur[s] = batchFor(s)
		}
		cur[s] = append(cur[s], streamCell[T]{i: i, wreq: wreq, dst: &page[i-pageBase]})
		if len(cur[s]) == chunk {
			flush(s)
		}
	}
	for s := range cur {
		flush(s)
	}
	shut()
	eo.finish(regs, stats)
	if err := src.Err(); err != nil {
		return nil, stats, err
	}
	if len(pages) == 1 {
		return pages[0][:n], stats, nil
	}
	tasks := make([]T, n)
	off := 0
	for _, p := range pages {
		off += copy(tasks[off:], p)
	}
	return tasks, stats, nil
}
