// Package dmav implements DMAV, the paper's core contribution:
// multiplication of a DD-represented gate matrix with a flat-array state
// vector, parallelized over a persistent work-stealing pool
// (internal/sched).
//
// Two execution modes exist, selected per gate by the MAC-operation cost
// model of Section 3.2.3:
//
//   - without caching (Algorithm 1): the amplitude range is split in row
//     space into ~8×threads chunks sized by the MAC-count cost model, so
//     a heavy sub-block splits finer than a sparse one; run is the
//     recursive kernel, with constant-time indexing along the DD
//     structure; it stops at identity sub-matrices (such as the whole
//     block below a gate's lowest qubit) and updates each with one
//     contiguous axpy instead of descending to one multiply-accumulate
//     per entry;
//   - with caching (Algorithm 2): AssignCache splits in column space
//     into a power-of-two chunk count (the border-level split must stay
//     aligned with the DD), chunks with non-overlapping partial outputs
//     share zero-initialized buffers, each chunk caches the result
//     sub-vector of every border node it computes, and a repeated node
//     is reused through one scalar multiplication instead of a full
//     recursive multiply. The final partial-buffer sum runs as row-range
//     tasks on the same pool.
//
// Any positive thread count is supported; chunks are distributed over
// the pool and re-balanced by stealing, so worker count and chunk
// shape no longer need to match.
package dmav

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"flatdd/internal/dd"
	"flatdd/internal/faults"
	"flatdd/internal/obs"
	"flatdd/internal/sched"
)

// DefaultSIMDWidth is the default d of Equation 6 — the number of data
// elements a SIMD lane processes at once (AVX2 in the paper; the unrolled
// Go kernels in kernels.go play that role here).
const DefaultSIMDWidth = 4

// chunksPerThread is the target over-decomposition factor: the uncached
// path aims for about this many row chunks per worker so the
// work-stealing pool has slack to re-balance a skewed MAC distribution.
const chunksPerThread = 8

// serialCutoffDim is the state size below which Apply always executes
// inline on the calling goroutine: a pool batch costs a few microseconds
// of wake/join per gate, which a sub-4096-amplitude multiplication
// cannot amortize.
const serialCutoffDim = 1 << 12

// Mode selects the caching policy of an Engine.
type Mode int

const (
	// Auto picks caching per gate with the cost model (the paper's FlatDD).
	Auto Mode = iota
	// NeverCache always runs Algorithm 1.
	NeverCache
	// AlwaysCache always runs Algorithm 2.
	AlwaysCache
)

func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case NeverCache:
		return "never"
	case AlwaysCache:
		return "always"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// task is one border-level multiplication task: a sub-matrix (its DD
// edge), the start index of the paired sub-vector, and the weight product
// accumulated above the edge (exclusive of the edge's own weight).
type task struct {
	edge dd.MEdge
	idx  uint64 // start index in V (Algorithm 1) or the partial output (Algorithm 2)
	f    complex128
}

// rowChunk is one schedulable unit of the uncached path: the tasks whose
// outputs land in the row range starting at ir. Chunks partition row
// space, so they write disjoint slices of W and need no synchronization.
type rowChunk struct {
	ir    uint64
	items []task
}

// GateCost is the cost-model evaluation of one gate matrix (Section 3.2.3).
type GateCost struct {
	K1      int64   // MACs without caching
	K2      int64   // MACs unrelated to caching (unique border subtrees)
	Hits    int64   // H: cache hits across all chunks
	Buffers int     // b: shared partial-output buffers
	C1      float64 // Equation 5
	C2      float64 // Equation 6
}

// UseCache reports whether the model prefers Algorithm 2 (C1 > C2).
func (c GateCost) UseCache() bool { return c.C1 > c.C2 }

// Cost returns min(C1, C2), the modeled cost of the DMAV.
func (c GateCost) Cost() float64 {
	if c.C2 < c.C1 {
		return c.C2
	}
	return c.C1
}

// Stats accumulates per-engine counters.
type Stats struct {
	Gates       int
	CachedGates int
	CacheHits   int64
	MACsModeled float64 // sum of min(C1,C2) over applied gates
	MACsC1      float64 // sum of C1 (Equation 5) — the no-caching cost
}

// Engine executes DMAV products over a fixed register size. It reuses its
// buffers across gates; an Engine is not safe for concurrent use (the
// parallelism is internal).
type Engine struct {
	m    *dd.Manager
	n    int
	dim  uint64
	mode Mode

	threads int // any positive count, capped at 2^n
	simd    int

	// kern is the kernel every border task runs. New sets it to run;
	// tests swap in the generic recursion to check that run is
	// bit-identical to it.
	kern func(edge dd.MEdge, V, W []complex128, iv, iw uint64, f complex128)

	// Cached-path (Algorithm 2) column-space partition: a power-of-two
	// chunk count so the border-level split stays aligned with the DD.
	cchunks int    // nextPow2(threads), <= 2^n
	clogT   uint   // log2(cchunks)
	ch      uint64 // 2^n / cchunks: rows/cols per cached chunk

	tasks   [][]task // per-chunk task lists (cached path), reused
	buffers [][]complex128
	bufOf   []int // chunk -> buffer index
	caches  []map[*dd.MNode]cacheEntry

	// Uncached-path adaptive row chunks, reused across gates.
	rchunks []rowChunk

	// macMemo memoizes dd.MACCountNode across gates for chunk sizing and
	// load accounting. Keys keep gate nodes alive, bounded by the
	// distinct gates actually applied.
	macMemo map[*dd.MNode]int64

	// pool executes chunk batches. Either injected via SetPool (caller
	// owns its lifetime) or created lazily on the first multi-threaded
	// Apply (released by Close).
	pool      *sched.Pool
	ownPool   bool
	execTasks []sched.Task // reused batch buffer
	sumTasks  []sched.Task

	// noBufferShare disables the shared-partial-output optimization of
	// Algorithm 2 (every chunk gets a private buffer); used by the
	// ablation experiments.
	noBufferShare bool

	// cancel, when non-nil, is a cooperative cancellation probe polled
	// once per chunk (row chunks, cached column chunks, and buffer-sum
	// ranges). A firing probe makes the rest of the Apply a no-op; the
	// output vector is then partial and must be discarded by the caller.
	cancel func() bool

	// span, when non-nil, parents the engine's pool batches so the
	// scheduler attributes per-batch steal/idle deltas to this gate
	// stream. Nil (the default) keeps the batches span-free.
	span *obs.Span

	// led, when non-nil, receives the engine's resource attribution:
	// pool-batch busy-ns via the scheduler and partial-buffer bytes as
	// they are allocated. Nil (the default) keeps batches ledger-free.
	led *obs.ResourceLedger

	stats Stats

	// met is nil when metrics are off: Apply gates all instrumentation
	// behind this one pointer check.
	met *engMetrics

	// fts holds the fault-injection hooks; nil points in production, so
	// each hook site costs one pointer check.
	fts engFaults
}

// engFaults are the engine's injection points (see internal/faults).
type engFaults struct {
	cacheCorrupt   *faults.Point
	computeCorrupt *faults.Point
}

// engMetrics holds the engine's registry handles (see DESIGN.md,
// "Observability", for the metric names).
type engMetrics struct {
	gates         *obs.Counter
	cachedGates   *obs.Counter
	uncachedGates *obs.Counter // cost model (or mode) bypassed the cache
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	macsModeled   *obs.Counter
	macsExec      *obs.Counter
	tasks         *obs.Counter
	chunks        *obs.Counter
	applyNs       *obs.Histogram

	// Load accounting caches. A gate's chunk plan and MAC counts are a
	// pure function of its (immutable) DD and the engine shape, so the
	// accounting is computed once per distinct gate root and replayed as
	// counter adds on repeats.
	macSeen map[*dd.MNode]bool
	acct    map[acctKey]*gateAccount
}

// acctKey identifies one accounting result: the gate DD root plus the
// execution mode (cached and uncached runs partition tasks differently).
type acctKey struct {
	n      *dd.MNode
	cached bool
}

// gateAccount is the memoized load of one gate in one mode.
type gateAccount struct {
	tasks  int64 // border tasks executed
	macs   int64 // multiply-accumulates (cache hits cost ch scalar ops)
	chunks int64 // schedulable chunks
	misses int64 // cache misses (cached mode only)
}

type cacheEntry struct {
	f     complex128 // full weight product of the cached result (incl. edge weight)
	start uint64     // start index of the cached sub-vector in the chunk's buffer
}

// New returns a DMAV engine for n qubits running max(1, threads)
// workers, capped at 2^n. Any positive thread count is supported: the
// uncached path sizes its row chunks by the MAC cost model, and the
// cached path partitions column space into the next power of two ≥
// threads, with the work-stealing pool re-balancing either shape across
// the actual workers.
func New(m *dd.Manager, n, threads int, mode Mode) *Engine {
	if n < 1 || n > 34 {
		panic(fmt.Sprintf("dmav: unsupported qubit count %d", n))
	}
	if threads < 1 {
		threads = 1
	}
	dim := uint64(1) << uint(n)
	if uint64(threads) > dim {
		threads = int(dim)
	}
	cchunks := 1
	for cchunks < threads {
		cchunks <<= 1
	}
	e := &Engine{
		m:       m,
		n:       n,
		dim:     dim,
		mode:    mode,
		threads: threads,
		cchunks: cchunks,
		clogT:   uint(bits.TrailingZeros(uint(cchunks))),
		simd:    DefaultSIMDWidth,
		kern:    run,
		macMemo: make(map[*dd.MNode]int64),
	}
	e.ch = e.dim >> e.clogT
	e.tasks = make([][]task, cchunks)
	e.bufOf = make([]int, cchunks)
	e.caches = make([]map[*dd.MNode]cacheEntry, cchunks)
	for i := range e.caches {
		e.caches[i] = make(map[*dd.MNode]cacheEntry)
	}
	return e
}

// Threads returns the effective worker count: max(1, requested), capped
// at 2^n. Unlike earlier versions, the count is no longer rounded to a
// power of two — New(m, n, 3, mode).Threads() == 3.
func (e *Engine) Threads() int { return e.threads }

// CacheChunks returns the cached-path column-space chunk count: the next
// power of two ≥ Threads(), capped at 2^n.
func (e *Engine) CacheChunks() int { return e.cchunks }

// Mode returns the caching policy.
func (e *Engine) Mode() Mode { return e.mode }

// SetPool injects a shared scheduler pool (core.Run uses this so one
// pool serves conversion and every DMAV gate). The caller keeps
// ownership of the pool's lifetime. Passing nil reverts to a lazily
// created engine-owned pool.
func (e *Engine) SetPool(p *sched.Pool) {
	if e.ownPool {
		e.pool.Close()
		e.ownPool = false
	}
	e.pool = p
}

// Close releases the engine-owned pool, if one was created. Engines
// given a pool via SetPool are not affected.
func (e *Engine) Close() {
	if e.ownPool {
		e.pool.Close()
		e.pool = nil
		e.ownPool = false
	}
}

// ensurePool lazily creates an engine-owned pool for engines not wired
// into a shared one.
func (e *Engine) ensurePool() {
	if e.pool == nil {
		e.pool = sched.New(e.threads)
		e.ownPool = true
	}
}

// SetCancel installs a cooperative cancellation probe (nil removes it).
// The probe is polled at chunk granularity inside Apply — cheap enough to
// leave no trace on the kernels (one call per ~8×threads chunks per
// gate), frequent enough that an abort is observed well within one gate.
// Once the probe fires, Apply returns early with a partial output vector
// and without updating Stats; the caller is expected to discard the
// output and stop applying gates. core.RunContext wires the run context's
// doneness in here.
func (e *Engine) SetCancel(f func() bool) { e.cancel = f }

// cancelled reports whether the installed probe has fired.
func (e *Engine) cancelled() bool { return e.cancel != nil && e.cancel() }

// SetSpan installs the tracing span under which the engine's pool
// batches run (nil removes it — the production default). Batches appear
// as "dmav.rows" / "dmav.chunks" / "dmav.sum" children carrying the
// scheduler's per-batch attribution; the span collector's cap bounds
// how many are retained per trace. Like SetCancel, it is set per run,
// not per gate.
func (e *Engine) SetSpan(s *obs.Span) { e.span = s }

// SetLedger installs the resource ledger the engine reports into (nil
// removes it — the production default). Pool batches credit their
// worker busy-ns to the ledger's open phase, and the cached path's
// shared partial-output buffers are counted as live flat-array bytes
// when (re)allocated. Like SetSpan, it is set per run, not per gate.
func (e *Engine) SetLedger(l *obs.ResourceLedger) { e.led = l }

// SetBufferSharing enables or disables the shared partial-output buffers
// of Algorithm 2 (enabled by default; disabling is for ablation studies).
func (e *Engine) SetBufferSharing(on bool) { e.noBufferShare = !on }

// SetSIMDWidth overrides the d parameter of Equation 6.
func (e *Engine) SetSIMDWidth(d int) {
	if d < 1 {
		d = 1
	}
	e.simd = d
}

// Stats returns the accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetMetrics attaches the engine to a registry (nil detaches). Aggregate
// load shows up as dmav.tasks (border tasks executed), dmav.chunks
// (schedulable chunks built) and dmav.macs.executed (multiply-
// accumulates performed: the exact path count of each executed sub-tree,
// plus one scalar multiply per cached element on reuse); per-worker
// attribution lives with the scheduler (sched.worker.<i>.*). It must be
// called before Apply.
func (e *Engine) SetMetrics(r *obs.Registry) {
	if r == nil {
		e.met = nil
		return
	}
	e.met = &engMetrics{
		gates:         r.Counter("dmav.gates"),
		cachedGates:   r.Counter("dmav.gates.cached"),
		uncachedGates: r.Counter("dmav.gates.uncached"),
		cacheHits:     r.Counter("dmav.cache.hits"),
		cacheMisses:   r.Counter("dmav.cache.misses"),
		macsModeled:   r.Counter("dmav.macs.modeled"),
		macsExec:      r.Counter("dmav.macs.executed"),
		tasks:         r.Counter("dmav.tasks"),
		chunks:        r.Counter("dmav.chunks"),
		applyNs:       r.Histogram("dmav.apply_ns", obs.DurationBuckets()),
		macSeen:       make(map[*dd.MNode]bool),
		acct:          make(map[acctKey]*gateAccount),
	}
}

// SetFaults wires the engine's injection points to a fault registry
// (nil detaches; production engines never call this). Must be called
// before Apply, like SetMetrics.
func (e *Engine) SetFaults(r *faults.Registry) {
	if r == nil {
		e.fts = engFaults{}
		return
	}
	e.fts = engFaults{
		cacheCorrupt:   r.Point(faults.DMAVCacheCorrupt),
		computeCorrupt: r.Point(faults.DMAVComputeCorrupt),
	}
}

// borderLevel is n - log2(cchunks) - 1 (Section 3.2.1): AssignCache
// stops there and run starts there.
func (e *Engine) borderLevel() int { return e.n - int(e.clogT) - 1 }

// inline reports whether this engine runs its per-gate work on the
// calling goroutine instead of batching it onto the pool. The decision
// is fixed per engine (it depends only on the thread count and state
// size), so the memoized load accounting never sees a plan-shape change.
func (e *Engine) inline() bool { return e.threads == 1 || e.dim < serialCutoffDim }

// Apply computes W = M·V, choosing the execution mode per the engine
// policy. V and W must have length 2^n and must not alias — violations
// are caller errors and reported as such (internal invariants still
// panic). It returns the cost-model evaluation used for the decision.
func (e *Engine) Apply(M dd.MEdge, V, W []complex128) (GateCost, error) {
	if uint64(len(V)) != e.dim || uint64(len(W)) != e.dim {
		return GateCost{}, fmt.Errorf("dmav: vector length %d/%d, want %d", len(V), len(W), e.dim)
	}
	if len(V) > 0 && &V[0] == &W[0] {
		return GateCost{}, fmt.Errorf("dmav: V and W must not alias")
	}
	zero(W)
	if M.IsZero() {
		return GateCost{}, nil
	}
	var start time.Time
	if e.met != nil {
		start = time.Now()
	}
	cost := e.EvaluateCost(M)
	useCache := cost.UseCache()
	switch e.mode {
	case NeverCache:
		useCache = false
	case AlwaysCache:
		useCache = true
	}
	// Inline execution never touches the pool, so its CPU time would be
	// invisible to the ledger's batch-level busy accounting; credit the
	// apply wall time instead (single-threaded, so wall == CPU).
	var ledStart time.Time
	if e.led != nil && e.inline() {
		ledStart = time.Now()
	}
	var hits int64
	if useCache {
		hits = e.applyCached(M, V, W)
	} else {
		e.applyUncached(M, V, W, cost.K1)
	}
	if !ledStart.IsZero() {
		e.led.AddCPU(time.Since(ledStart).Nanoseconds())
	}
	if e.cancelled() {
		// Aborted mid-gate: W is partial and the caller discards it, so
		// neither Stats nor the metrics count this Apply.
		return cost, nil
	}
	if useCache {
		e.stats.CachedGates++
		e.stats.CacheHits += hits
	}
	e.stats.Gates++
	e.stats.MACsModeled += cost.Cost()
	e.stats.MACsC1 += cost.C1
	if met := e.met; met != nil {
		met.applyNs.Observe(time.Since(start).Nanoseconds())
		met.gates.Inc()
		met.macsModeled.Add(int64(cost.Cost()))
		if useCache {
			met.cachedGates.Inc()
			met.cacheHits.Add(hits)
		} else {
			met.uncachedGates.Inc()
		}
		e.accountLoad(met, M, useCache)
	}
	return cost, nil
}

// accountLoad attributes the exact load of the Apply that just ran:
// chunks built, tasks executed and multiply-accumulates performed (the
// path count of each executed sub-tree; with caching, repeated nodes
// cost one scalar multiply per cached element instead). It runs
// sequentially after the pool batch has drained so the kernel stays
// instrumentation-free, and is memoized per distinct gate root (walking
// the chunk plan the assignment just built); steady state is one map
// lookup plus counter adds. Per-worker attribution comes from the
// scheduler's own counters, since stealing makes the worker→chunk
// mapping dynamic.
func (e *Engine) accountLoad(met *engMetrics, M dd.MEdge, useCache bool) {
	key := acctKey{M.N, useCache}
	a, ok := met.acct[key]
	if !ok {
		a = &gateAccount{}
		memo := e.macMemo
		if !useCache {
			a.chunks = int64(len(e.rchunks))
			for i := range e.rchunks {
				a.tasks += int64(len(e.rchunks[i].items))
				for _, tk := range e.rchunks[i].items {
					a.macs += dd.MACCountNode(tk.edge.N, memo)
				}
			}
		} else {
			seen := met.macSeen
			for u := 0; u < e.cchunks; u++ {
				if len(e.tasks[u]) == 0 {
					continue
				}
				a.chunks++
				a.tasks += int64(len(e.tasks[u]))
				clear(seen)
				for _, tk := range e.tasks[u] {
					if seen[tk.edge.N] {
						a.macs += int64(e.ch)
						continue
					}
					seen[tk.edge.N] = true
					a.misses++
					a.macs += dd.MACCountNode(tk.edge.N, memo)
				}
			}
		}
		met.acct[key] = a
	}
	met.tasks.Add(a.tasks)
	met.macsExec.Add(a.macs)
	met.chunks.Add(a.chunks)
	if useCache {
		met.cacheMisses.Add(a.misses)
	}
}

// EvaluateCost runs the Section 3.2.3 cost model on a gate matrix without
// executing the multiplication.
func (e *Engine) EvaluateCost(M dd.MEdge) GateCost {
	var c GateCost
	if M.IsZero() {
		return c
	}
	c.K1 = dd.MACCount(M)
	c.C1 = float64(c.K1) / float64(e.threads)

	// Dry-run the caching assignment to obtain K2, H and b.
	e.assignCache(M)
	memo := make(map[*dd.MNode]int64)
	seen := make(map[*dd.MNode]bool)
	nBuf := 0
	for u := range e.tasks {
		clear(seen)
		for _, tk := range e.tasks[u] {
			if seen[tk.edge.N] {
				c.Hits++
				continue
			}
			seen[tk.edge.N] = true
			c.K2 += dd.MACCountNode(tk.edge.N, memo)
		}
		if e.bufOf[u]+1 > nBuf {
			nBuf = e.bufOf[u] + 1
		}
	}
	c.Buffers = nBuf
	t := float64(e.threads)
	d := float64(e.simd)
	c.C2 = float64(c.K2)/t + float64(e.dim)/(d*t)*(float64(c.Hits)/t+float64(c.Buffers))
	return c
}

// applyUncached is Algorithm 1: DMAV without caching. Row chunks are
// sized by the MAC cost model (assignRows) and executed as one pool
// batch; chunks write disjoint row ranges of W, so tasks need no
// synchronization among themselves.
func (e *Engine) applyUncached(M dd.MEdge, V, W []complex128, k1 int64) {
	e.assignRows(M, k1)
	if e.inline() || len(e.rchunks) == 1 {
		for i := range e.rchunks {
			if e.cancelled() {
				return
			}
			c := &e.rchunks[i]
			for _, tk := range c.items {
				e.kern(tk.edge, V, W, tk.idx, c.ir, tk.f)
			}
			e.corruptRow(W, c.ir)
		}
		return
	}
	e.ensurePool()
	ts := e.execTasks[:0]
	for i := range e.rchunks {
		c := &e.rchunks[i]
		ts = append(ts, func() {
			if e.cancelled() {
				return
			}
			for _, tk := range c.items {
				e.kern(tk.edge, V, W, tk.idx, c.ir, tk.f)
			}
			e.corruptRow(W, c.ir)
		})
	}
	e.execTasks = ts
	e.pool.RunTracked(e.span, "dmav.rows", e.led, ts)
}

// assignRows builds the uncached path's row-space chunk plan: starting
// from the whole matrix, any row range whose modeled MAC count exceeds
// K1/(chunksPerThread·threads) is split in half (descending one DD
// level), so dense sub-blocks decompose into many small chunks while
// sparse ones stay whole. The result is ~chunksPerThread×threads chunks
// whose sizes track actual work, which is what gives the stealing pool
// something useful to balance.
func (e *Engine) assignRows(M dd.MEdge, totalMACs int64) {
	e.rchunks = e.rchunks[:0]
	budget := totalMACs / int64(chunksPerThread*e.threads)
	if e.inline() {
		budget = totalMACs // one chunk: nothing to balance inline
	}
	if budget < 1 {
		budget = 1
	}
	memo := e.macMemo
	var rec func(items []task, l int, ir uint64)
	rec = func(items []task, l int, ir uint64) {
		if len(items) == 0 {
			return
		}
		if l >= 0 {
			var cost int64
			for _, it := range items {
				cost += dd.MACCountNode(it.edge.N, memo)
			}
			if cost > budget {
				lo := make([]task, 0, len(items))
				hi := make([]task, 0, len(items))
				for _, it := range items {
					fw := it.f * it.edge.W
					for j := 0; j < 2; j++ {
						if c := it.edge.N.Child(0, j); !c.IsZero() {
							lo = append(lo, task{c, it.idx + uint64(j)<<uint(l), fw})
						}
						if c := it.edge.N.Child(1, j); !c.IsZero() {
							hi = append(hi, task{c, it.idx + uint64(j)<<uint(l), fw})
						}
					}
				}
				rec(lo, l-1, ir)
				rec(hi, l-1, ir+uint64(1)<<uint(l))
				return
			}
		}
		e.rchunks = append(e.rchunks, rowChunk{ir: ir, items: items})
	}
	rec([]task{{M, 0, 1}}, e.n-1, 0)
}

// run is the recursive kernel of Algorithms 1 and 2: it accumulates
// f·edge.W times the sub-matrix at edge into W, reading V, with the
// sub-matrix's row block starting at iw and its column block at iv.
// Indexing descends the DD with one shift-or per level — the
// constant-average-cost access pattern DMAV's speed over generic array
// simulators comes from — but stops at the first identity node
// (dd.MNode.Ident): its whole diagonal block is one contiguous axpy,
// W[iw:iw+2^(l+1)] += f·edge.W·V[iv:iv+2^(l+1)]. Any other level-0 node
// does its up to four terminal multiply-accumulates inline instead of
// one call each. Every edge inside an identity subtree has weight 1, so
// both leaves form the same products, in the same order, as descending
// to the terminal would, and W is bit-identical.
func run(edge dd.MEdge, V, W []complex128, iv, iw uint64, f complex128) {
	n := edge.N
	if n.Level == dd.TerminalLevel {
		W[iw] += f * edge.W * V[iv]
		return
	}
	fw := f * edge.W
	if n.Ident {
		size := uint64(2) << uint(n.Level)
		axpy(W[iw:iw+size], V[iv:iv+size], fw)
		return
	}
	if n.Level == 0 {
		if c := n.E[0]; !c.IsZero() {
			W[iw] += fw * c.W * V[iv]
		}
		if c := n.E[1]; !c.IsZero() {
			W[iw] += fw * c.W * V[iv+1]
		}
		if c := n.E[2]; !c.IsZero() {
			W[iw+1] += fw * c.W * V[iv]
		}
		if c := n.E[3]; !c.IsZero() {
			W[iw+1] += fw * c.W * V[iv+1]
		}
		return
	}
	l := uint(n.Level)
	if c := n.E[0]; !c.IsZero() {
		run(c, V, W, iv, iw, fw)
	}
	if c := n.E[1]; !c.IsZero() {
		run(c, V, W, iv+1<<l, iw, fw)
	}
	if c := n.E[2]; !c.IsZero() {
		run(c, V, W, iv, iw+1<<l, fw)
	}
	if c := n.E[3]; !c.IsZero() {
		run(c, V, W, iv+1<<l, iw+1<<l, fw)
	}
}

// applyCached is Algorithm 2: DMAV with caching. Column-space chunks run
// as one pool batch (chunks sharing a buffer write disjoint row
// segments, so they may run concurrently), then the partial buffers are
// summed into W by a second batch of row-range tasks. It returns the
// number of cache hits.
func (e *Engine) applyCached(M dd.MEdge, V, W []complex128) int64 {
	e.assignCache(M)
	nBuf := 0
	for _, b := range e.bufOf {
		if b+1 > nBuf {
			nBuf = b + 1
		}
	}
	// (Re)allocate and zero the shared partial-output buffers.
	for len(e.buffers) < nBuf {
		e.buffers = append(e.buffers, make([]complex128, e.dim))
		e.led.AddFlat(int64(e.dim) * 16)
	}
	for b := 0; b < nBuf; b++ {
		zero(e.buffers[b])
	}

	var hits atomic.Int64
	runChunk := func(u int) {
		if e.cancelled() {
			return
		}
		buf := e.buffers[e.bufOf[u]]
		cache := e.caches[u]
		clear(cache)
		iv := uint64(u) * e.ch // the chunk's column block in V
		var local int64
		for _, tk := range e.tasks[u] {
			fFull := tk.f * tk.edge.W
			if r, ok := cache[tk.edge.N]; ok {
				// Reuse: the repeated node's result is the cached
				// sub-vector scaled by the ratio of full weights.
				scalarMulInto(buf[tk.idx:tk.idx+e.ch], buf[r.start:r.start+e.ch], fFull/r.f)
				local++
				continue
			}
			e.kern(tk.edge, V, buf, iv, tk.idx, tk.f)
			cache[tk.edge.N] = cacheEntry{f: fFull, start: tk.idx}
			if e.fts.cacheCorrupt != nil {
				if z, ok := e.fts.cacheCorrupt.Corrupt(buf[tk.idx]); ok {
					buf[tk.idx] = z
				}
			}
		}
		if local > 0 {
			hits.Add(local)
		}
	}
	if e.inline() {
		for u := 0; u < e.cchunks; u++ {
			if len(e.tasks[u]) > 0 {
				runChunk(u)
			}
		}
	} else {
		e.ensurePool()
		ts := e.execTasks[:0]
		for u := 0; u < e.cchunks; u++ {
			if len(e.tasks[u]) == 0 {
				continue
			}
			u := u
			ts = append(ts, func() { runChunk(u) })
		}
		e.execTasks = ts
		e.pool.RunTracked(e.span, "dmav.chunks", e.led, ts)
	}

	e.sumBuffers(W, nBuf)
	return hits.Load()
}

// corruptRow is the uncached path's corruption hook: after a row chunk
// computes, the armed fault flips the chunk's first output amplitude
// (chunks own disjoint row ranges, so the write races with nothing).
func (e *Engine) corruptRow(W []complex128, ir uint64) {
	if e.fts.computeCorrupt == nil {
		return
	}
	if z, ok := e.fts.computeCorrupt.Corrupt(W[ir]); ok {
		W[ir] = z
	}
}

// sumBuffers adds the partial-output buffers into W as ~chunksPerThread
// ×threads row-range tasks on the pool (each task owns a disjoint row
// range across all buffers, so the adds race with nothing).
func (e *Engine) sumBuffers(W []complex128, nBuf int) {
	if nBuf == 0 {
		return
	}
	const minRows = 1024
	chunks := chunksPerThread * e.threads
	if m := int(e.dim / minRows); chunks > m {
		chunks = m
	}
	if chunks < 1 {
		chunks = 1
	}
	if e.inline() || chunks == 1 {
		if e.cancelled() {
			return
		}
		for b := 0; b < nBuf; b++ {
			addInto(W, e.buffers[b])
		}
		return
	}
	e.ensurePool()
	ts := e.sumTasks[:0]
	for i := 0; i < chunks; i++ {
		lo := uint64(i) * e.dim / uint64(chunks)
		hi := uint64(i+1) * e.dim / uint64(chunks)
		ts = append(ts, func() {
			if e.cancelled() {
				return
			}
			for b := 0; b < nBuf; b++ {
				addInto(W[lo:hi], e.buffers[b][lo:hi])
			}
		})
	}
	e.sumTasks = ts
	e.pool.RunTracked(e.span, "dmav.sum", e.led, ts)
}

// assignCache populates e.tasks with column-space border tasks
// (AssignCache of Algorithm 2) and assigns each chunk a partial-output
// buffer, sharing buffers between chunks whose output row segments do
// not overlap.
func (e *Engine) assignCache(M dd.MEdge) {
	for u := range e.tasks {
		e.tasks[u] = e.tasks[u][:0]
	}
	border := e.borderLevel()
	var rec func(edge dd.MEdge, f complex128, u int, ip uint64, l int)
	rec = func(edge dd.MEdge, f complex128, u int, ip uint64, l int) {
		if edge.IsZero() {
			return
		}
		if l == border {
			e.tasks[u] = append(e.tasks[u], task{edge, ip, f})
			return
		}
		// Splitting factor cchunks / 2^(n-l): at the top level each
		// column bit selects one half of the chunks, one quarter a level
		// below, ...
		step := e.cchunks >> uint(e.n-l)
		// Column-major: the column bit j selects the chunk, the row bit i
		// the partial-output segment.
		for j := 0; j < 2; j++ {
			for i := 0; i < 2; i++ {
				rec(edge.N.Child(i, j), f*edge.W, u+j*step, ip+uint64(i)<<uint(l), l-1)
			}
		}
	}
	rec(M, 1, 0, 0, e.n-1)

	if e.noBufferShare {
		for u := range e.bufOf {
			e.bufOf[u] = u
		}
		return
	}

	// Greedy buffer sharing: quantum gate matrices are sparse, so the
	// partial outputs of different chunks frequently occupy disjoint row
	// segments and can live in one buffer.
	type segset map[uint64]struct{}
	var occupied []segset
	for u := 0; u < e.cchunks; u++ {
		mine := make(segset, len(e.tasks[u]))
		for _, tk := range e.tasks[u] {
			mine[tk.idx] = struct{}{}
		}
		placed := -1
		for b, occ := range occupied {
			conflict := false
			for s := range mine {
				if _, ok := occ[s]; ok {
					conflict = true
					break
				}
			}
			if !conflict {
				placed = b
				break
			}
		}
		if placed < 0 {
			occupied = append(occupied, make(segset))
			placed = len(occupied) - 1
		}
		for s := range mine {
			occupied[placed][s] = struct{}{}
		}
		e.bufOf[u] = placed
	}
}
