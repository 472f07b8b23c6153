package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"flatdd/internal/obs"
	"flatdd/internal/qasm"
	"flatdd/internal/serve"
	"flatdd/internal/serve/client"
	"flatdd/internal/statevec"
	"flatdd/internal/workloads"
)

// Fixed settings of the serve-zipf workload. They are part of the
// benchmark's definition: changing any of them makes results incomparable
// with earlier ones.
const (
	serveQubits = 10
	serveShots  = 1000
	// serveTop sizes each cached result at about 27 KiB, so a 1 MiB cache
	// holds about 38 results per replica and the cold tenant evicts.
	serveTop      = 256
	hotPool       = 16  // distinct circuits the hot tenant draws from
	hotZipfS      = 1.2 // zipf exponent of the hot tenant's draws
	hotRate       = 15.0
	coldRate      = 3.0
	warmupSeconds = 3.0
	latencyLimit  = 250 * time.Millisecond
	replicas      = 2
	replicaFlight = 1 // running jobs per replica
	cacheBudgetMB = 1
	pollInterval  = 100 * time.Millisecond
)

// arrival is one job of the open-loop schedule.
type arrival struct {
	due     time.Duration // offset from the schedule start
	tenant  string
	circuit int // index into serveInputs.qasm
	warm    bool
}

// serveInputs is the generated serve-zipf input: the distinct circuits as
// QASM text, and the schedule of submissions.
type serveInputs struct {
	qasm     []string
	schedule []arrival
}

// poissonTimes draws the arrival times of a Poisson process of the given
// rate on [lo, lo+span), conditioned on its expected count: a fixed
// number of arrivals at uniformly random instants. Fixing the count keeps
// the offered load identical from seed to seed; only the spacing varies.
func poissonTimes(rng *rand.Rand, rate, lo, span float64) []time.Duration {
	k := int(math.Round(rate * span))
	out := make([]time.Duration, k)
	for i := range out {
		out[i] = time.Duration((lo + rng.Float64()*span) * float64(time.Second))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// serveSchedule generates the serve-zipf input from the seed: a warm-up
// stretch and a timed stretch of the same arrival process. The hot tenant
// draws zipf-distributed circuits from a small pool; every cold job gets a
// circuit of its own.
func serveSchedule(seed int64, seconds float64) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(deriveSeed(seed, -1)))
	in := &serveInputs{}
	add := func(cseed int64) (int, error) {
		c, err := workloads.Build("qv", serveQubits, cseed)
		if err != nil {
			return 0, err
		}
		text, err := qasm.ToString(c)
		if err != nil {
			return 0, err
		}
		in.qasm = append(in.qasm, text)
		return len(in.qasm) - 1, nil
	}
	for k := 0; k < hotPool; k++ {
		if _, err := add(deriveSeed(seed, k)); err != nil {
			return nil, err
		}
	}
	zipf := rand.NewZipf(rng, hotZipfS, 1, hotPool-1)
	for _, warm := range []bool{true, false} {
		lo, span := 0.0, warmupSeconds
		if !warm {
			lo, span = warmupSeconds, seconds
		}
		for _, t := range poissonTimes(rng, hotRate, lo, span) {
			in.schedule = append(in.schedule, arrival{due: t, tenant: "hot", circuit: int(zipf.Uint64()), warm: warm})
		}
		for _, t := range poissonTimes(rng, coldRate, lo, span) {
			ci, err := add(deriveSeed(seed, len(in.qasm)))
			if err != nil {
				return nil, err
			}
			in.schedule = append(in.schedule, arrival{due: t, tenant: "cold", circuit: ci, warm: warm})
		}
	}
	sort.SliceStable(in.schedule, func(i, j int) bool { return in.schedule[i].due < in.schedule[j].due })
	return in, nil
}

// serveReference computes every circuit's amplitudes with statevec.
func serveReference(in *serveInputs) ([][]complex128, error) {
	ref := make([][]complex128, len(in.qasm))
	for i, text := range in.qasm {
		c, err := qasm.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("reference parse: %w", err)
		}
		sv := statevec.New(c.Qubits, 1)
		sv.SetFastPath(true)
		sv.ApplyCircuit(c)
		ref[i] = sv.Amplitudes()
	}
	return ref, nil
}

// checkResult verifies one job's result: every returned top amplitude
// equals the reference's, the returned states are the largest ones, and
// the shots sum to the number requested.
func checkResult(res *serve.JobResult, ref []complex128) error {
	total := 0
	for basis, k := range res.Shots {
		if _, err := strconv.ParseUint(basis, 2, 64); err != nil || len(basis) != serveQubits {
			return fmt.Errorf("shot key %q is not a %d-qubit basis state", basis, serveQubits)
		}
		total += k
	}
	if total != serveShots {
		return fmt.Errorf("shots sum to %d, want %d", total, serveShots)
	}
	if len(res.Top) != serveTop {
		return fmt.Errorf("%d top amplitudes, want %d", len(res.Top), serveTop)
	}
	probs := make([]float64, len(ref))
	for i, a := range ref {
		probs[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(probs)))
	for _, t := range res.Top {
		idx, err := strconv.ParseUint(t.Basis, 2, 64)
		if err != nil || idx >= uint64(len(ref)) {
			return fmt.Errorf("top basis %q out of range", t.Basis)
		}
		if cmplx.Abs(complex(t.Re, t.Im)-ref[idx]) > ampTol {
			return fmt.Errorf("amplitude of %s is %v, reference %v", t.Basis, complex(t.Re, t.Im), ref[idx])
		}
		if p := cmplx.Abs(ref[idx]); p*p < probs[serveTop-1]-ampTol {
			return fmt.Errorf("%s is not among the %d largest amplitudes", t.Basis, serveTop)
		}
	}
	return nil
}

// proc is one started fleet process.
type proc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
}

// listenWatch captures a process's stdout until it announces its listen
// address ("... listening on http://host:port ...").
type listenWatch struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
}

func (w *listenWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.addr == nil {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		line, rest, ok := strings.Cut(string(w.buf), "\n")
		if !ok {
			return len(p), nil
		}
		w.buf = []byte(rest)
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "http://") {
				w.addr <- f
				w.addr = nil
				return len(p), nil
			}
		}
	}
}

func startProc(bin string, args ...string) (*proc, error) {
	addr := make(chan string, 1)
	w := &listenWatch{addr: addr}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = w
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is irrelevant once stopped
		close(p.done)
	}()
	select {
	case p.addr = <-addr:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening", filepath.Base(bin))
	case <-time.After(10 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not announce a listen address", filepath.Base(bin))
	}
}

// stop asks the process to exit (SIGTERM), kills it after a grace period,
// and returns once it has exited.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // may have exited already
	select {
	case <-p.done:
		return
	case <-time.After(5 * time.Second):
	}
	p.cmd.Process.Kill() //nolint:errcheck // may have exited already
	<-p.done
}

// fleet is a coordinator with its replicas, each a process of its own.
type fleet struct {
	replicas []*proc
	coord    *proc
}

func (f *fleet) stop() {
	if f.coord != nil {
		f.coord.stop()
	}
	for _, r := range f.replicas {
		r.stop()
	}
}

// startFleet starts the replicas and the coordinator and returns once the
// coordinator reports every replica alive.
func startFleet(binDir string, threads int) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < replicas; i++ {
		p, err := startProc(filepath.Join(binDir, "flatdd-serve"),
			"-listen", "127.0.0.1:0", "-threads", strconv.Itoa(threads),
			"-inflight", strconv.Itoa(replicaFlight), "-cache-budget-mb", strconv.Itoa(cacheBudgetMB),
			"-log-format", "off")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, p)
		urls = append(urls, fmt.Sprintf("r%d=%s", i+1, p.addr))
	}
	p, err := startProc(filepath.Join(binDir, "flatdd-coord"),
		"-listen", "127.0.0.1:0", "-replicas", strings.Join(urls, ","),
		"-probe-interval", "50ms", "-log-format", "off")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = p
	cl := client.New(p.addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		h, err := cl.Health(ctx)
		cancel()
		if err == nil {
			if alive, _ := h["alive"].(float64); int(alive) == replicas {
				return f, nil
			}
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("fleet not alive after 10s (last error: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// procCPU returns a process's user plus system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks (100 per second).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procPeakRSS returns a process's peak resident set size in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return float64(kb) / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func (f *fleet) cpu() (time.Duration, error) {
	var t time.Duration
	for _, p := range append(append([]*proc(nil), f.replicas...), f.coord) {
		c, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		t += c
	}
	return t, nil
}

// jobRecord is what the load generator observed for one job.
type jobRecord struct {
	arrival
	trace      obs.TraceID // zero when the run is untraced
	dueAt      time.Time
	sent       time.Time
	submitDur  time.Duration
	resultAt   time.Time
	resultDur  time.Duration
	view       *serve.JobView
	rejected   bool
	err        error
	terminalAt time.Time // the view's finished_at
}

func (r *jobRecord) ok() bool { return r.err == nil }

// latency is the time from when the job was due until its terminal state;
// a failed or refused job never meets any limit.
func (r *jobRecord) latency() time.Duration {
	if !r.ok() || r.terminalAt.IsZero() {
		return time.Duration(math.MaxInt64)
	}
	return r.terminalAt.Sub(r.dueAt)
}

func latencyMs(d time.Duration) float64 {
	if d == time.Duration(math.MaxInt64) {
		return math.Inf(1)
	}
	return float64(d) / 1e6
}

// runLoad plays the schedule open-loop: each job is submitted when due,
// whatever the state of earlier jobs, from one process over at most conns
// connections. onTimed runs when the generator reaches the first timed
// arrival. It returns the records and the schedule's start.
func runLoad(ctx context.Context, coordURL string, in *serveInputs, ref [][]complex128, conns int, traced bool, seed int64, onTimed func()) ([]*jobRecord, time.Time) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	clients := map[string]*client.Client{
		"hot":  client.New(coordURL, client.WithHTTPClient(hc), client.WithTenant("hot")),
		"cold": client.New(coordURL, client.WithHTTPClient(hc), client.WithTenant("cold")),
	}
	recs := make([]*jobRecord, len(in.schedule))
	start := time.Now()
	var wg sync.WaitGroup
	for i, a := range in.schedule {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if !a.warm && onTimed != nil {
			onTimed()
			onTimed = nil
		}
		rec := &jobRecord{arrival: a, dueAt: due}
		if traced {
			rec.trace = traceID(seed, i)
		}
		recs[i] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			runJob(ctx, clients[a.tenant], in.qasm[a.circuit], ref[a.circuit], rec)
		}()
	}
	wg.Wait()
	return recs, start
}

// traceID derives job i's trace ID from the seed.
func traceID(seed int64, i int) obs.TraceID {
	var t obs.TraceID
	binary.BigEndian.PutUint64(t[:8], uint64(deriveSeed(seed, i)))
	binary.BigEndian.PutUint64(t[8:], uint64(i)+1)
	return t
}

func runJob(ctx context.Context, cl *client.Client, text string, ref []complex128, rec *jobRecord) {
	var opts []client.SubmitOption
	if !rec.trace.IsZero() {
		var s obs.SpanID
		copy(s[:], rec.trace[8:])
		opts = append(opts, client.WithTraceParent(obs.TraceParent(rec.trace, s)))
	}
	rec.sent = time.Now()
	resp, err := cl.Submit(ctx, &serve.SubmitRequest{QASM: text, Shots: serveShots, Top: serveTop}, opts...)
	rec.submitDur = time.Since(rec.sent)
	if err != nil {
		var apiErr *client.APIError
		rec.rejected = errors.As(err, &apiErr)
		rec.err = fmt.Errorf("submit: %w", err)
		return
	}
	v := &resp.Job
	if v.State != serve.StateDone && v.State != serve.StateFailed && v.State != serve.StateCanceled {
		if v, err = cl.Wait(ctx, resp.Job.ID, pollInterval); err != nil {
			rec.err = fmt.Errorf("wait: %w", err)
			return
		}
	}
	rec.view = v
	if v.State != serve.StateDone || v.FinishedAt == nil {
		rec.err = fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
		return
	}
	rec.terminalAt = *v.FinishedAt
	rec.resultAt = time.Now()
	res, err := cl.Result(ctx, v.ID)
	rec.resultDur = time.Since(rec.resultAt)
	if err != nil {
		rec.err = fmt.Errorf("result: %w", err)
		return
	}
	if err := checkResult(res, ref); err != nil {
		rec.err = fmt.Errorf("job %s: %w", v.ID, err)
	}
}

// coordMetrics fetches the coordinator's metric snapshot.
func coordMetrics(ctx context.Context, coordURL string) (obs.Snapshot, error) {
	var s obs.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, coordURL+"/debug/metrics", nil)
	if err != nil {
		return s, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// serveRun is a serve-zipf run: set up setupReps times (inputs, reference
// and a fresh fleet each time, keeping the last fleet), play the schedule,
// and derive the end-to-end or the per-layer metrics from what the load
// generator and the job views recorded.
func serveRun(ctx context.Context, seed int64, seconds float64, threads int, binDir string, traced bool, traceFile string) (*outcome, error) {
	var in *serveInputs
	var ref [][]complex128
	var fl *fleet
	setup, err := setUp(func() error {
		if fl != nil {
			fl.stop()
		}
		var err error
		if in, err = serveSchedule(seed, seconds); err != nil {
			return err
		}
		if ref, err = serveReference(in); err != nil {
			return err
		}
		fl, err = startFleet(binDir, threads)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer fl.stop()

	var cpu0 time.Duration
	var snap0 obs.Snapshot
	var timedAt time.Time
	var probeErr error
	recs, start := runLoad(ctx, fl.coord.addr, in, ref, threads, traced, seed, func() {
		timedAt = time.Now()
		var err1, err2 error
		cpu0, err1 = fl.cpu()
		snap0, err2 = coordMetrics(ctx, fl.coord.addr)
		probeErr = errors.Join(err1, err2)
	})
	cpu1, err1 := fl.cpu()
	snap1, err2 := coordMetrics(ctx, fl.coord.addr)
	if err := errors.Join(probeErr, err1, err2); err != nil {
		return nil, fmt.Errorf("read fleet counters: %w", err)
	}
	var peak float64
	for _, r := range fl.replicas {
		mb, err := procPeakRSS(r.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		peak += mb
	}

	out := &outcome{}
	var timed []*jobRecord
	for _, r := range recs {
		out.attempted++
		if !r.ok() {
			out.failed++
			warnf("%s job due at %v: %v", r.tenant, r.due, r.err)
		}
		if !r.warm {
			timed = append(timed, r)
		}
	}
	lat := make([]float64, len(timed))
	good := 0
	end := timedAt
	for i, r := range timed {
		lat[i] = latencyMs(r.latency())
		if r.ok() && r.latency() <= latencyLimit {
			good++
		}
		if t := r.terminalAt; r.ok() && t.After(end) {
			end = t
		}
	}
	out.notes = []string{
		fmt.Sprintf("jobs=%d timed=%d over %.0f s (+%.0f s warm-up), offered hot %.0f/s cold %.0f/s, limit %v",
			len(recs), len(timed), seconds, warmupSeconds, hotRate, coldRate, latencyLimit),
		tailNote("job latency from due time", lat),
	}
	if !traced {
		out.metrics = map[string]float64{
			"wall_s":         end.Sub(timedAt).Seconds(),
			"cpu_s":          (cpu1 - cpu0).Seconds(),
			"peak_mem_mb":    peak,
			"setup_s":        setup,
			"latency_p50_ms": percentile(lat, 0.5),
			"latency_p90_ms": percentile(lat, 0.9),
			"goodput_per_s":  float64(good) / end.Sub(timedAt).Seconds(),
		}
		return out, nil
	}
	out.metrics = serveLayers(timed, in, snap1.Delta(snap0))
	for _, r := range fl.replicas {
		h, err := client.New(r.addr).Health(ctx)
		if err != nil {
			return nil, fmt.Errorf("replica health: %w", err)
		}
		cache, _ := h["cache"].(map[string]any)
		ev, _ := cache["evictions"].(float64)
		out.metrics["serve.cache.evictions"] += ev
	}
	tr := newTracer()
	tr.epoch = start
	for _, r := range timed {
		recordJobSpans(tr, r)
	}
	if err := tr.write(traceFile); err != nil {
		warnf("writing spans: %v", err)
	}
	out.notes = append(out.notes, "spans="+traceFile)
	return out, nil
}

// serveLayers derives the per-layer serve metrics of the timed jobs.
func serveLayers(timed []*jobRecord, in *serveInputs, coord obs.Snapshot) map[string]float64 {
	m := map[string]float64{}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for _, tenant := range []string{"hot", "cold"} {
		var submit, queue, engine, result []float64
		var admitted, hits, coalesced, misses, rejected, retries float64
		for _, r := range timed {
			if r.tenant != tenant {
				continue
			}
			if r.rejected {
				rejected++
			}
			if r.view == nil {
				continue
			}
			submit = append(submit, ms(r.submitDur))
			admitted++
			switch r.view.Cache {
			case serve.CacheHit:
				hits++
			case serve.CacheCoalesced:
				coalesced++
			case serve.CacheMiss:
				misses++
			}
			if r.view.Attempts > 1 {
				retries += float64(r.view.Attempts - 1)
			}
			if r.view.StartedAt != nil && r.view.FinishedAt != nil && r.view.Cache == serve.CacheMiss {
				queue = append(queue, ms(r.view.StartedAt.Sub(r.view.SubmittedAt)))
				engine = append(engine, ms(r.view.FinishedAt.Sub(*r.view.StartedAt)))
			}
			if r.ok() {
				result = append(result, ms(r.resultDur))
			}
		}
		m["serve.submit_ms."+tenant] = median(submit)
		m["serve.queue_ms."+tenant] = median(queue)
		m["serve.engine_ms."+tenant] = median(engine)
		m["serve.result_ms."+tenant] = median(result)
		m["serve.cache.hit_ratio."+tenant] = ratio(hits, admitted)
		m["serve.cache.coalesced_ratio."+tenant] = ratio(coalesced, admitted)
		m["serve.cache.misses."+tenant] = misses
		m["serve.rejected."+tenant] = rejected
		m["serve.retries."+tenant] = retries
	}

	// The submit path's parsing and hashing, timed on the submitted text.
	var parse, hash []float64
	seen := map[int]bool{}
	for _, r := range timed {
		if seen[r.circuit] {
			continue
		}
		seen[r.circuit] = true
		t0 := time.Now()
		c, err := qasm.Parse(in.qasm[r.circuit])
		parse = append(parse, time.Since(t0).Seconds())
		if err != nil {
			continue
		}
		t0 = time.Now()
		_ = c.Hash()
		hash = append(hash, time.Since(t0).Seconds())
	}
	m["qasm.parse_s"] = median(parse)
	m["circuit.hash_s"] = median(hash)

	var rpcNs, rpcCount int64
	for name, h := range coord.Histograms {
		if strings.HasPrefix(name, "cluster.replica.") && strings.HasSuffix(name, ".rpc.ns") {
			rpcNs += h.Sum
			rpcCount += h.Count
		}
	}
	m["cluster.hop_ms"] = ratio(float64(rpcNs), float64(rpcCount)) / 1e6
	share := map[string]float64{}
	var routed float64
	for _, r := range timed {
		if r.view != nil && r.view.Replica != "" {
			share[r.view.Replica]++
			routed++
		}
	}
	for _, v := range share {
		m["cluster.replica_share_max"] = math.Max(m["cluster.replica_share_max"], v/routed)
	}
	m["cluster.failovers"] = float64(coord.Counters["cluster.failover.total"])
	m["gen.lag_ms"] = percentile(genLagMs(timed), 0.9)
	return m
}

// genLagMs returns how late the generator sent each job, in ms. A late
// generator offers less load than the schedule says, which invalidates
// the run's latency figures.
func genLagMs(recs []*jobRecord) []float64 {
	lag := make([]float64, len(recs))
	for i, r := range recs {
		lag[i] = float64(r.sent.Sub(r.dueAt)) / 1e6
	}
	return lag
}

// recordJobSpans records one job as one trace: the job from due time to
// terminal state, with the client's submit and result calls and the
// server-reported queue and engine intervals as children.
func recordJobSpans(tr *tracer, r *jobRecord) {
	id := r.trace.String()
	end := r.terminalAt
	if end.IsZero() {
		end = r.sent.Add(r.submitDur)
	}
	root := tr.add(span{Trace: id, Name: "job " + r.tenant, Layer: "job", Start: tr.at(r.dueAt), End: tr.at(end)})
	tr.add(span{Trace: id, Parent: root, Name: "client.Submit", Layer: "serve.submit",
		Start: tr.at(r.sent), End: tr.at(r.sent.Add(r.submitDur))})
	if v := r.view; v != nil && v.StartedAt != nil && v.FinishedAt != nil {
		tr.add(span{Trace: id, Parent: root, Name: "queue", Layer: "serve.queue", Start: tr.at(v.SubmittedAt), End: tr.at(*v.StartedAt)})
		tr.add(span{Trace: id, Parent: root, Name: "engine", Layer: "serve.engine", Start: tr.at(*v.StartedAt), End: tr.at(*v.FinishedAt)})
	}
	if !r.resultAt.IsZero() {
		tr.add(span{Trace: id, Parent: root, Name: "client.Result", Layer: "serve.result",
			Start: tr.at(r.resultAt), End: tr.at(r.resultAt.Add(r.resultDur))})
	}
}
