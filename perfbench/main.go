// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every result against an independent
// reference, and prints its metrics by name with their units; the last
// line of its output is one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics of a traced replay (-trace 1).
//
// Run it from the repository root through run.sh, which builds it and the
// serving binaries first:
//
//	bash perfbench/run.sh --workload deep-flat --seed 1 --seconds 15 --trace 0
//
// README.md next to this file explains each workload and metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, as BENCHMARK.json
// declares them. failed_frac is printed in the report but is not among
// them: it is 0 on a correct program, and the result line carries the
// same information as attempted and failed.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_mem_mb", "MiB"},
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"goodput_per_s", "1/s"},
}

// perLayer lists the metrics of a traced run. A metric that a workload
// does not exercise reads 0.
var perLayer = []metricSpec{
	{"trace.wall_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"core.unattributed_s", "s"},
	{"ddsim.self_s", "s"},
	{"ddsim.gates", "count"},
	{"ddsim.ns_per_gate", "ns"},
	{"dd.peak_nodes", "count"},
	{"dd.unique.hit_ratio", "ratio"},
	{"dd.compute.hit_ratio", "ratio"},
	{"dd.gc.runs", "count"},
	{"dd.gc.pause_s", "s"},
	{"cnum.hit_ratio", "ratio"},
	{"ewma.self_s", "s"},
	{"ewma.fire_gate", "count"},
	{"convert.self_s", "s"},
	{"convert.amps", "count"},
	{"fusion.self_s", "s"},
	{"fusion.gates_in", "count"},
	{"fusion.gates_out", "count"},
	{"dmav.self_s", "s"},
	{"dmav.gates", "count"},
	{"dmav.ns_per_amp_update", "ns"},
	{"dmav.macs_modeled", "count"},
	{"dmav.macs_executed", "count"},
	{"dmav.macs_ratio", "ratio"},
	{"dmav.cached_gates", "count"},
	{"dmav.cache_hits", "count"},
	{"dmav.bytes_computed", "B"},
	{"dmav.gbs_computed", "GB/s"},
	{"dmav.bw_frac", "ratio"},
	{"sched.tasks", "count"},
	{"sched.steals", "count"},
	{"sched.busy_s", "s"},
	{"sched.idle_s", "s"},
	{"membw.copy_gbs", "GB/s"},
	{"membw.array_mib", "MiB"},
	{"membw.llc_mib", "MiB"},
	{"qasm.parse_s", "s"},
	{"circuit.hash_s", "s"},
	{"serve.submit_ms.hot", "ms"},
	{"serve.submit_ms.cold", "ms"},
	{"serve.queue_ms.hot", "ms"},
	{"serve.queue_ms.cold", "ms"},
	{"serve.engine_ms.hot", "ms"},
	{"serve.engine_ms.cold", "ms"},
	{"serve.result_ms.hot", "ms"},
	{"serve.result_ms.cold", "ms"},
	{"serve.cache.hit_ratio.hot", "ratio"},
	{"serve.cache.hit_ratio.cold", "ratio"},
	{"serve.cache.coalesced_ratio.hot", "ratio"},
	{"serve.cache.coalesced_ratio.cold", "ratio"},
	{"serve.cache.misses.hot", "count"},
	{"serve.cache.misses.cold", "count"},
	{"serve.cache.evictions", "count"},
	{"serve.rejected.hot", "count"},
	{"serve.rejected.cold", "count"},
	{"serve.retries.hot", "count"},
	{"serve.retries.cold", "count"},
	{"cluster.hop_ms", "ms"},
	{"cluster.replica_share_max", "ratio"},
	{"cluster.failovers", "count"},
	{"gen.lag_ms", "ms"},
}

// A run sets up at least setupReps times and until setupMinTime has
// passed; setup_s is the median, so a set-up of a few milliseconds is
// still measured over many repetitions.
const (
	setupReps    = 3
	setupMinTime = time.Second
	setupMaxReps = 1000
)

// setUp runs f repeatedly as above and returns the median duration in
// seconds. The last repetition's results are the ones the run uses.
func setUp(f func() error) (float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < setupReps || (time.Since(start) < setupMinTime && len(ds) < setupMaxReps) {
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// runDeadline bounds a whole run, well inside the three minutes a run may
// take.
const runDeadline = 170 * time.Second

// outcome is a finished run: its metrics, the operation counts, and extra
// report lines (sample counts, sizes) that explain the numbers.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int
	notes             []string
}

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"deep-flat", "wide-flat", "dd-regular", "serve-zipf"}

func main() {
	workload := flag.String("workload", "", "workload: deep-flat, wide-flat, dd-regular, serve-zipf, or all of them in turn")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 15, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	binDir := flag.String("bin", ".bench_build", "directory holding the flatdd-serve and flatdd-coord binaries")
	child := flag.Bool("engine-child", false, "internal: run timed engine passes for a parent perfbench")
	flag.Parse()
	if *child {
		if err := engineChild(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench engine child:", err)
			os.Exit(2)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	code := 0
	for _, name := range names {
		correct, err := runWorkload(name, *seed, *seconds, *trace == 1, *binDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		if !correct {
			code = 1
		}
	}
	os.Exit(code)
}

// runWorkload runs one workload and prints its report and result line. It
// reports whether every result was correct.
func runWorkload(name string, seed int64, seconds float64, traced bool, binDir string) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	threads := runtime.NumCPU()
	traceFile := filepath.Join(binDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	var out *outcome
	var err error
	if w, ok := engineWorkloads[name]; ok {
		if traced {
			out, err = engineTraced(w, seed, seconds, threads, traceFile)
		} else {
			out, err = engineTimed(ctx, w, seed, seconds, threads)
		}
	} else if name == "serve-zipf" {
		out, err = serveRun(ctx, seed, seconds, threads, binDir, traced, traceFile)
	} else {
		err = fmt.Errorf("unknown workload %q (%s, or all)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return false, err
	}
	return printResult(os.Stdout, out, hostStamp(name, seed, seconds, traced, threads), traced), nil
}

// printResult prints the report and, last, the JSON result line. It
// reports whether every result was correct.
func printResult(f *os.File, out *outcome, stamp map[string]any, traced bool) bool {
	b, _ := json.Marshal(stamp)
	fmt.Fprintf(f, "stamp %s\n", b)
	for _, n := range out.notes {
		fmt.Fprintf(f, "note  %s\n", n)
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(specs))
	for _, s := range specs {
		v := out.metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = -1 // JSON has no infinities; -1 reads as "not met"
		}
		ms[s.name] = metric{v, s.unit}
		fmt.Fprintf(f, "%-34s %16.6g %s\n", s.name, v, s.unit)
	}
	failedFrac := ratio(float64(out.failed), float64(out.attempted))
	fmt.Fprintf(f, "%-34s %16.6g %s (%d of %d operations)\n", "failed_frac", failedFrac, "ratio", out.failed, out.attempted)
	correct := out.failed == 0 && out.attempted > 0
	res, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(out.attempted, 1), out.failed, ms})
	fmt.Fprintf(f, "%s\n", res)
	return correct
}

// hostStamp describes what a result was measured on and with, so that a
// comparison shows what it compares.
func hostStamp(workload string, seed int64, seconds float64, traced bool, threads int) map[string]any {
	llc, _ := llcBytes()
	s := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"traced":     traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"llc_bytes":  llc,
		"go":         runtime.Version(),
		"git_sha":    gitSHA(),
		"source":     sourceDigest(),
		"threads":    threads,
	}
	if w, ok := engineWorkloads[workload]; ok {
		s["fusion"] = w.fusion.String()
	}
	if workload == "serve-zipf" {
		s["replicas"] = replicas
		s["replica_threads"] = threads
		s["replica_inflight"] = replicaFlight
		s["cache_budget_mb"] = cacheBudgetMB
		s["client_conns"] = threads
		s["offered_rate_per_s"] = map[string]float64{"hot": hotRate, "cold": coldRate}
		s["job"] = fmt.Sprintf("qv-%d, %d shots, top %d", serveQubits, serveShots, serveTop)
		s["hot_pool"] = fmt.Sprintf("%d circuits, zipf s=%g", hotPool, hotZipfS)
		s["warmup_s"] = warmupSeconds
		s["latency_limit_ms"] = latencyLimit.Milliseconds()
	}
	return s
}

// gitSHA returns the checkout's commit, or "none" when the working
// directory is not the root of a git work tree (git is not asked, so it
// never reports an enclosing repository's commit).
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's Go sources (cmd/ and internal/, test
// files excluded), which identifies the measured code where no git
// history exists.
func sourceDigest() string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // a missing tree hashes as empty
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// engineTimed is an untraced engine run: set up repeatedly (see setUp),
// then time whole passes in a child process until the run's time is used.
func engineTimed(ctx context.Context, w engineWorkload, seed int64, seconds float64, threads int) (*outcome, error) {
	var ins []engineInput
	var want [][]complex128
	setup, err := setUp(func() error {
		want = nil
		var err error
		ins, want, err = engineSetup(w, seed, threads)
		return err
	})
	if err != nil {
		return nil, err
	}
	run, err := runEngineChild(ctx, childJob{Threads: threads, Fusion: int(w.fusion), Seconds: seconds, Inputs: ins}, want)
	if err != nil {
		return nil, err
	}
	return &outcome{
		metrics: map[string]float64{
			"wall_s":         median(run.passWall),
			"cpu_s":          median(run.passCPU),
			"peak_mem_mb":    run.peakRSSMB,
			"setup_s":        setup,
			"latency_p50_ms": percentile(run.opMs, 0.5),
			"latency_p90_ms": percentile(run.opMs, 0.9),
			"goodput_per_s":  float64(run.attempted-run.failed) / sum(run.passWall),
		},
		attempted: run.attempted,
		failed:    run.failed,
		notes: []string{
			fmt.Sprintf("passes=%d circuits=%d threads=%d pass wall_s=%.4g", len(run.passWall), len(ins), threads, run.passWall),
			tailNote("RunContext latency", run.opMs),
		},
	}, nil
}

// tailNote states a latency sample's size and the highest percentile that
// has at least minTail samples beyond it.
func tailNote(what string, xs []float64) string {
	p, v, ok := tailPercentile(xs, 0.5, 0.9, 0.99)
	if !ok {
		return fmt.Sprintf("%s: %d samples, fewer than %d beyond p%g", what, len(xs), minTail, p*100)
	}
	return fmt.Sprintf("%s: %d samples, p50=%.3f ms, highest resolved p%g=%.3f ms", what, len(xs), percentile(xs, 0.5), p*100, v)
}

// engineTraced is a traced engine run: the bandwidth probe, then traced
// passes (RunContext followed by the layer replay) until the run's time is
// used. Times are medians over passes; counts repeat exactly and come from
// the last pass.
func engineTraced(w engineWorkload, seed int64, seconds float64, threads int, traceFile string) (*outcome, error) {
	llc, err := llcBytes()
	if err != nil {
		warnf("LLC size unknown (%v); probe arrays use the 64 MiB floor", err)
	}
	arr := probeArrayBytes(llc)
	bw := copyBandwidth(arr, threads, 5)
	debug.FreeOSMemory()

	ins, want, err := engineSetup(w, seed, threads)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	start := time.Now()
	type passStats struct {
		lc    *layerCounts
		self  map[string]float64
		roots float64
	}
	var passes []passStats
	out := &outcome{}
	dur := time.Duration(seconds * float64(time.Second))
	for p := 0; p == 0 || fits(time.Since(start), p, dur); p++ {
		from := len(tr.snapshot())
		lc, a, f, err := tracedPass(tr, p, ins, want, threads, w.fusion)
		if err != nil {
			return nil, err
		}
		out.attempted += a
		out.failed += f
		spans := tr.snapshot()[from:]
		var roots float64
		for _, s := range spans {
			if s.Parent == 0 {
				roots += float64(s.End-s.Start) / 1e9
			}
		}
		passes = append(passes, passStats{lc, layerSelf(spans), roots})
	}
	if err := tr.write(traceFile); err != nil {
		warnf("writing spans: %v", err)
	}
	med := func(f func(passStats) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	self := func(layer string) float64 { return med(func(p passStats) float64 { return p.self[layer] }) }
	lc := passes[len(passes)-1].lc
	m := map[string]float64{}
	m["trace.wall_s"] = med(func(p passStats) float64 { return p.roots })
	m["trace.overhead_frac"] = med(func(p passStats) float64 {
		u := p.lc.untracedWall.Seconds()
		return ratio(p.roots-u, u)
	})
	m["core.unattributed_s"] = self("core")
	m["ddsim.self_s"] = self("ddsim")
	m["ddsim.gates"] = float64(lc.ddGates)
	m["ddsim.ns_per_gate"] = ratio(m["ddsim.self_s"]*1e9, float64(lc.ddGates))
	m["dd.peak_nodes"] = float64(lc.peakNodes)
	m["dd.unique.hit_ratio"] = ratio(float64(lc.uniqueHits), float64(lc.uniqueLookups))
	m["dd.compute.hit_ratio"] = ratio(float64(lc.computeHits), float64(lc.computeLookups))
	m["dd.gc.runs"] = float64(lc.gcRuns)
	m["dd.gc.pause_s"] = float64(lc.gcPauseNs) / 1e9
	m["cnum.hit_ratio"] = ratio(float64(lc.cnumHits), float64(lc.cnumLookups))
	m["ewma.self_s"] = self("ewma")
	m["ewma.fire_gate"] = float64(lc.fireGate)
	m["convert.self_s"] = self("convert")
	m["convert.amps"] = float64(lc.convertAmps)
	m["fusion.self_s"] = self("fusion")
	m["fusion.gates_in"] = float64(lc.fusionIn)
	m["fusion.gates_out"] = float64(lc.fusionOut)
	m["dmav.self_s"] = self("dmav")
	m["dmav.gates"] = float64(lc.dmavGates)
	m["dmav.ns_per_amp_update"] = ratio(m["dmav.self_s"]*1e9, lc.ampUpdates)
	m["dmav.macs_modeled"] = lc.macsModeled
	m["dmav.macs_executed"] = lc.macsExecuted
	m["dmav.macs_ratio"] = ratio(lc.macsExecuted, lc.macsModeled)
	m["dmav.cached_gates"] = float64(lc.dmavCached)
	m["dmav.cache_hits"] = float64(lc.dmavHits)
	// Computed, not measured: each gate reads the input array and reads
	// and writes the output array, 16 bytes per amplitude each.
	m["dmav.bytes_computed"] = 48 * lc.ampUpdates
	m["dmav.gbs_computed"] = ratio(m["dmav.bytes_computed"], m["dmav.self_s"]) / 1e9
	m["dmav.bw_frac"] = ratio(m["dmav.gbs_computed"], bw)
	m["sched.tasks"] = float64(lc.schedTasks)
	m["sched.steals"] = float64(lc.schedSteals)
	m["sched.busy_s"] = lc.schedBusy.Seconds()
	m["sched.idle_s"] = lc.schedIdle.Seconds()
	m["membw.copy_gbs"] = bw
	m["membw.array_mib"] = float64(arr) / (1 << 20)
	m["membw.llc_mib"] = float64(llc) / (1 << 20)
	out.metrics = m
	out.notes = []string{
		fmt.Sprintf("passes=%d circuits=%d threads=%d spans=%s", len(passes), len(ins), threads, traceFile),
		fmt.Sprintf("membw: copy probe over two %d MiB arrays (LLC %d MiB), %.2f GB/s counting read+write", arr>>20, llc>>20, bw),
		fmt.Sprintf("layer shares of trace.wall_s: ddsim %.3f ewma %.3f convert %.3f fusion %.3f dmav %.3f unattributed %.3f",
			ratio(m["ddsim.self_s"], m["trace.wall_s"]), ratio(m["ewma.self_s"], m["trace.wall_s"]),
			ratio(m["convert.self_s"], m["trace.wall_s"]), ratio(m["fusion.self_s"], m["trace.wall_s"]),
			ratio(m["dmav.self_s"], m["trace.wall_s"]), ratio(m["core.unattributed_s"], m["trace.wall_s"])),
	}
	return out, nil
}
