package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"os/exec"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"flatdd/internal/circuit"
	"flatdd/internal/core"
	"flatdd/internal/statevec"
	"flatdd/internal/workloads"
)

// engineWorkload is a list of circuits simulated one after another through
// core.Simulator.RunContext; one pass over the list is one measurement.
type engineWorkload struct {
	fusion   core.FusionMode
	circuits []circuitSpec
}

type circuitSpec struct {
	family string
	n      int
}

// The engine workloads. Why each exists, and the layer mix it is expected
// to show, is recorded in README.md next to this file.
var engineWorkloads = map[string]engineWorkload{
	// Scrambling circuits on a 1 MiB state: DMAV dominates, fusion does
	// real work, everything stays in cache.
	"deep-flat": {fusion: core.DMAVAware, circuits: []circuitSpec{
		{"supremacy", 16}, {"dnn", 16}, {"qv", 16}}},
	// Shallow circuits on 128 MiB arrays, larger than the last-level
	// cache: the same DMAV kernels stream from DRAM.
	"wide-flat": {fusion: core.NoFusion, circuits: []circuitSpec{
		{"swaptest", 23}, {"knn", 23}}},
	// Regular circuits whose DD stays small: the EWMA controller never
	// fires and the whole run is the DD phase.
	"dd-regular": {fusion: core.NoFusion, circuits: ddRegularSpecs()},
}

func ddRegularSpecs() []circuitSpec {
	var out []circuitSpec
	for _, f := range []string{"qft", "adder", "bv", "ghz", "wstate"} {
		for _, n := range []int{48, 54, 60} {
			out = append(out, circuitSpec{f, n})
		}
	}
	return out
}

// maxStatevecQubits bounds the circuits checked against a full statevec
// reference; larger ones are checked against analytic amplitudes.
const maxStatevecQubits = 23

// engineInput is one generated circuit: a circuit of the workloads
// registry in the program's native gate set, named by family, size and
// seed, as the flatdd CLI's -circuit flag takes it. Probes lists the basis
// states whose amplitudes are checked; it is empty when the whole state
// vector is checked.
type engineInput struct {
	Name   string   `json:"name"`
	Family string   `json:"family"`
	N      int      `json:"n"`
	Seed   int64    `json:"seed"`
	Probes []uint64 `json:"probes,omitempty"`
}

func (in engineInput) full() bool { return len(in.Probes) == 0 }

// build generates the circuit. Bernstein-Vazirani takes its secret from
// the seed here, so the expected output is known without reading it back
// out of the circuit.
func (in engineInput) build() (*circuit.Circuit, error) {
	if in.Family == "bv" {
		return workloads.BernsteinVazirani(in.N-1, bvSecret(in)), nil
	}
	return workloads.Build(in.Family, in.N, in.Seed)
}

func bvSecret(in engineInput) uint64 { return uint64(in.Seed) % (uint64(1) << uint(in.N-1)) }

// deriveSeed mixes the workload seed with an input index (splitmix64), so
// inputs are independent of each other and every one changes with the
// seed.
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// engineInputs generates a workload's inputs from the seed, together with
// the analytic expectation of the circuits too large for a statevec
// reference (nil entries mean "compute the reference with statevec").
func engineInputs(w engineWorkload, seed int64) ([]engineInput, [][]complex128, error) {
	ins := make([]engineInput, len(w.circuits))
	want := make([][]complex128, len(w.circuits))
	for i, cs := range w.circuits {
		in := engineInput{Name: fmt.Sprintf("%s-%d", cs.family, cs.n), Family: cs.family, N: cs.n, Seed: deriveSeed(seed, i)}
		if cs.n > maxStatevecQubits {
			c, err := in.build()
			if err != nil {
				return nil, nil, err
			}
			if in.Probes, want[i], err = analytic(in, c); err != nil {
				return nil, nil, err
			}
		}
		ins[i] = in
	}
	return ins, want, nil
}

// analytic returns probe basis states and their exact amplitudes for the
// regular circuits run from |0...0>: the circuit's support plus random
// basis states that must be zero (or, for QFT, uniform).
func analytic(in engineInput, c *circuit.Circuit) ([]uint64, []complex128, error) {
	n := in.N
	amp := map[uint64]complex128{}
	var fill complex128 // amplitude of every basis state outside amp
	switch in.Family {
	case "ghz":
		amp[0] = complex(1/math.Sqrt2, 0)
		amp[uint64(1)<<uint(n)-1] = complex(1/math.Sqrt2, 0)
	case "wstate":
		for k := 0; k < n; k++ {
			amp[uint64(1)<<uint(k)] = complex(1/math.Sqrt(float64(n)), 0)
		}
	case "qft":
		fill = complex(math.Pow(2, -float64(n)/2), 0)
	case "bv":
		// Data qubits end in |secret>, the ancilla (qubit n-1) in |->.
		secret := bvSecret(in)
		amp[secret] = complex(1/math.Sqrt2, 0)
		amp[secret|uint64(1)<<uint(n-1)] = complex(-1/math.Sqrt2, 0)
	case "adder":
		amp[adderOutput(c, n)] = 1
	default:
		return nil, nil, fmt.Errorf("no analytic output for %s", in.Family)
	}
	var probes []uint64
	for idx := range amp {
		probes = append(probes, idx)
	}
	slices.Sort(probes)
	want := make([]complex128, len(probes))
	for i, idx := range probes {
		want[i] = amp[idx]
	}
	rng := rand.New(rand.NewSource(in.Seed))
	for len(probes) < len(amp)+32 {
		idx := rng.Uint64() & (uint64(1)<<uint(n) - 1)
		if _, ok := amp[idx]; ok {
			continue
		}
		probes = append(probes, idx)
		want = append(want, fill)
	}
	return probes, want, nil
}

// adderOutput is the basis state the Cuccaro adder must reach: inputs a
// and b are read off the leading X gates of the register layout
// [cin, a0, b0, a1, b1, ..., cout]; the output keeps a, holds a+b in b and
// the carry in cout.
func adderOutput(c *circuit.Circuit, n int) uint64 {
	k := (n - 2) / 2
	var a, b uint64
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Name != "x" {
			break
		}
		q := g.Targets[0]
		if (q-1)%2 == 0 {
			a |= 1 << uint((q-1)/2)
		} else {
			b |= 1 << uint((q-2)/2)
		}
	}
	s := a + b
	var out uint64
	for i := 0; i < k; i++ {
		out |= (a >> uint(i) & 1) << uint(1+2*i)
		out |= (s >> uint(i) & 1) << uint(2+2*i)
	}
	out |= (s >> uint(k) & 1) << uint(n-1)
	return out
}

// engineSetup is the timed set-up of an engine workload: input generation
// and the reference computation.
func engineSetup(w engineWorkload, seed int64, threads int) ([]engineInput, [][]complex128, error) {
	ins, want, err := engineInputs(w, seed)
	if err != nil {
		return nil, nil, err
	}
	for i, in := range ins {
		if want[i] != nil {
			continue
		}
		c, err := in.build()
		if err != nil {
			return nil, nil, err
		}
		sv := statevec.New(in.N, threads)
		sv.SetFastPath(true)
		sv.ApplyCircuit(c)
		want[i] = sv.Amplitudes()
	}
	return ins, want, nil
}

// ampTol is the agreement required between the program and its reference.
const ampTol = 1e-9

// agree reports whether got matches want: within ampTol for a full state
// vector, and within ampTol relative to the largest expected amplitude for
// analytic probes, whose amplitudes can be as small as 2^(-n/2).
func agree(got, want []complex128, in engineInput) bool {
	if len(got) != len(want) {
		return false
	}
	tol := ampTol
	if !in.full() {
		var scale float64
		for _, w := range want {
			scale = math.Max(scale, cmplx.Abs(w))
		}
		tol *= scale
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > tol {
			return false
		}
	}
	return true
}

// observe extracts what the oracle checks from a finished simulator: the
// whole state, or the probed amplitudes.
func observe(sim *core.Simulator, in engineInput) []complex128 {
	if in.full() {
		return sim.Amplitudes()
	}
	out := make([]complex128, len(in.Probes))
	for i, idx := range in.Probes {
		out[i] = sim.Amplitude(idx)
	}
	return out
}

// childJob is what the parent sends the engine child on its stdin.
type childJob struct {
	Threads int           `json:"threads"`
	Fusion  int           `json:"fusion"`
	Seconds float64       `json:"seconds"`
	Inputs  []engineInput `json:"inputs"`
}

// childFrame heads one result on the child's stdout; Amps complex values
// (little-endian float64 pairs) follow it.
type childFrame struct {
	Done   bool   `json:"done,omitempty"`
	Pass   int    `json:"pass"`
	Input  int    `json:"input"`
	WallNs int64  `json:"wall_ns"`
	CPUNs  int64  `json:"cpu_ns"`
	Err    string `json:"err,omitempty"`
	Amps   int    `json:"amps"`
}

// cpuNow returns the process's user plus system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// engineChild runs the timed passes in a process of its own, so its peak
// memory and CPU time belong to the simulation alone. After each circuit
// it sends the checked amplitudes and waits for the parent's
// acknowledgement, so checking never overlaps a timed run.
func engineChild(stdin io.Reader, stdout io.Writer) error {
	in := bufio.NewReader(stdin)
	line, err := in.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("read job: %w", err)
	}
	var job childJob
	if err := json.Unmarshal(line, &job); err != nil {
		return fmt.Errorf("decode job: %w", err)
	}
	circs := make([]*circuit.Circuit, len(job.Inputs))
	for i, ji := range job.Inputs {
		if circs[i], err = ji.build(); err != nil {
			return err
		}
	}
	out := bufio.NewWriterSize(stdout, 1<<20)
	enc := json.NewEncoder(out)
	opts := core.Options{Threads: job.Threads, Fusion: core.FusionMode(job.Fusion)}
	// Only the timed runs count toward the run's measuring time; sending
	// and checking results does not.
	dur := time.Duration(job.Seconds * float64(time.Second))
	var measured time.Duration
	for pass := 0; pass == 0 || fits(measured, pass, dur); pass++ {
		for i, c := range circs {
			// Each run starts without the previous run's garbage and with
			// its pages returned to the OS, as a run in a fresh process
			// would, so the peak RSS is the largest single run's.
			debug.FreeOSMemory()
			cpu0, t0 := cpuNow(), time.Now()
			sim := core.New(c.Qubits, opts)
			_, err := sim.RunContext(context.Background(), c)
			wall, cpu := time.Since(t0), cpuNow()-cpu0
			measured += wall
			fr := childFrame{Pass: pass, Input: i, WallNs: wall.Nanoseconds(), CPUNs: cpu.Nanoseconds()}
			var amps []complex128
			if err != nil {
				fr.Err = err.Error()
			} else {
				amps = observe(sim, job.Inputs[i])
				fr.Amps = len(amps)
			}
			if err := enc.Encode(fr); err != nil {
				return err
			}
			if err := writeAmps(out, amps); err != nil {
				return err
			}
			if err := out.Flush(); err != nil {
				return err
			}
			if _, err := in.ReadByte(); err != nil {
				return fmt.Errorf("await ack: %w", err)
			}
		}
	}
	if err := enc.Encode(childFrame{Done: true}); err != nil {
		return err
	}
	return out.Flush()
}

// fits reports whether another pass, taking as long as the mean of the
// passes done so far, still ends within the run's time.
func fits(elapsed time.Duration, passes int, dur time.Duration) bool {
	return elapsed+elapsed/time.Duration(passes) <= dur
}

func writeAmps(w io.Writer, amps []complex128) error {
	buf := make([]byte, 0, 1<<16)
	for i, a := range amps {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(real(a)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(imag(a)))
		if len(buf) == cap(buf) || i == len(amps)-1 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}

func readAmps(r io.Reader, n int) ([]complex128, error) {
	out := make([]complex128, n)
	buf := make([]byte, 1<<16)
	for i := 0; i < n; {
		k := min(len(buf)/16, n-i)
		if _, err := io.ReadFull(r, buf[:k*16]); err != nil {
			return nil, err
		}
		for j := 0; j < k; j++ {
			re := math.Float64frombits(binary.LittleEndian.Uint64(buf[16*j:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(buf[16*j+8:]))
			out[i+j] = complex(re, im)
		}
		i += k
	}
	return out, nil
}

// engineRun is the outcome of the timed passes.
type engineRun struct {
	passWall, passCPU []float64 // seconds per pass
	opMs              []float64 // per-RunContext wall, ms
	attempted, failed int
	peakRSSMB         float64
}

// runEngineChild starts the child, checks every result it sends against
// want, and collects the per-pass figures.
func runEngineChild(ctx context.Context, job childJob, want [][]complex128) (*engineRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-engine-child")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start engine child: %w", err)
	}
	res, rerr := talkToChild(job, want, stdin, newBufReader(stdout))
	stdin.Close()
	if rerr != nil {
		// Drain so the child is never blocked on a full pipe while
		// being waited for.
		go io.Copy(io.Discard, stdout) //nolint:errcheck // draining only
	}
	werr := cmd.Wait()
	if rerr != nil {
		return nil, rerr
	}
	if werr != nil {
		return nil, fmt.Errorf("engine child: %w", werr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.peakRSSMB = float64(ru.Maxrss) / 1024
	}
	return res, nil
}

func newBufReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, 1<<20) }

func talkToChild(job childJob, want [][]complex128, stdin io.Writer, out *bufio.Reader) (*engineRun, error) {
	b, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	if _, err := stdin.Write(append(b, '\n')); err != nil {
		return nil, fmt.Errorf("send job: %w", err)
	}
	res := &engineRun{}
	for {
		line, err := out.ReadBytes('\n')
		if err != nil {
			return nil, fmt.Errorf("read child frame: %w", err)
		}
		var fr childFrame
		if err := json.Unmarshal(line, &fr); err != nil {
			return nil, fmt.Errorf("decode child frame: %w", err)
		}
		if fr.Done {
			return res, nil
		}
		amps, err := readAmps(out, fr.Amps)
		if err != nil {
			return nil, fmt.Errorf("read amplitudes: %w", err)
		}
		if fr.Input < 0 || fr.Input >= len(want) {
			return nil, fmt.Errorf("child reported input %d of %d", fr.Input, len(want))
		}
		for len(res.passWall) <= fr.Pass {
			res.passWall = append(res.passWall, 0)
			res.passCPU = append(res.passCPU, 0)
		}
		res.passWall[fr.Pass] += float64(fr.WallNs) / 1e9
		res.passCPU[fr.Pass] += float64(fr.CPUNs) / 1e9
		res.opMs = append(res.opMs, float64(fr.WallNs)/1e6)
		res.attempted++
		if fr.Err != "" || !agree(amps, want[fr.Input], job.Inputs[fr.Input]) {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: wrong result (err=%q)\n",
				job.Inputs[fr.Input].Name, fr.Pass, fr.Err)
		}
		if _, err := stdin.Write([]byte{1}); err != nil {
			return nil, fmt.Errorf("ack: %w", err)
		}
	}
}
