package main

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"flatdd/internal/circuit"
	"flatdd/internal/convert"
	"flatdd/internal/core"
	"flatdd/internal/dd"
	"flatdd/internal/ddsim"
	"flatdd/internal/dmav"
	"flatdd/internal/ewma"
	"flatdd/internal/fusion"
	"flatdd/internal/obs"
	"flatdd/internal/sched"
)

// layerCounts accumulates the counters of the traced replays of one pass.
type layerCounts struct {
	ddGates                         int64
	peakNodes                       int64
	uniqueHits, uniqueLookups       int64
	computeHits, computeLookups     int64
	gcRuns, gcPauseNs               int64
	cnumHits, cnumLookups           int64
	fireGate                        int64
	convertAmps                     int64
	fusionIn, fusionOut             int64
	dmavGates, dmavCached, dmavHits int64
	ampUpdates                      float64
	macsModeled, macsExecuted       float64
	schedTasks, schedSteals         int64
	schedBusy, schedIdle            time.Duration
	untracedWall                    time.Duration
}

// replayed is what one replay produced: the final state DD when the run
// never converted, the flat state otherwise.
type replayed struct {
	sim         *ddsim.Simulator
	state       []complex128
	convertedAt int
}

// amps extracts what the oracle checks, as observe does for RunContext.
func (r replayed) amps(in engineInput, threads int) []complex128 {
	if r.state == nil && in.full() {
		return convert.Parallel(r.sim.State(), in.N, threads)
	}
	if in.full() {
		return r.state
	}
	out := make([]complex128, len(in.Probes))
	for k, idx := range in.Probes {
		if r.state == nil {
			out[k] = r.sim.Amplitude(idx)
		} else {
			out[k] = r.state[idx]
		}
	}
	return out
}

// replay runs c through the same public calls core.Simulator.RunContext
// makes, in the same order, with a span around each call into a layer and
// the layers' counters attached to a private registry. Its result must
// equal RunContext's: that is what shows the spans time the real program.
// The root span covers what RunContext covers; its self time is the work
// no layer call accounts for.
func replay(tr *tracer, trace string, c *circuit.Circuit, name string, threads int, mode core.FusionMode, lc *layerCounts) (replayed, error) {
	reg := obs.New()
	root := tr.begin(trace, 0, "core.replay "+name, "core")
	r, m, err := replaySim(tr, trace, root, reg, c, threads, mode, lc)
	tr.end(root)
	if err != nil {
		return r, err
	}
	s := reg.Snapshot()
	lc.peakNodes = max(lc.peakNodes, int64(m.PeakNodeCount()))
	uh := s.Counters["dd.unique.v.hits"] + s.Counters["dd.unique.m.hits"]
	lc.uniqueHits += uh
	lc.uniqueLookups += uh + s.Counters["dd.unique.v.misses"] + s.Counters["dd.unique.m.misses"]
	for _, t := range []string{"add", "madd", "mv", "mm"} {
		lc.computeHits += s.Counters["dd.ct."+t+".hits"]
		lc.computeLookups += s.Counters["dd.ct."+t+".lookups"]
	}
	lc.gcRuns += s.Counters["dd.gc.runs"]
	lc.gcPauseNs += s.Counters["dd.gc.pause_ns"]
	lc.cnumHits += s.Counters["cnum.hits"]
	lc.cnumLookups += s.Counters["cnum.lookups"]
	lc.macsExecuted += float64(s.Counters["dmav.macs.executed"])
	return r, nil
}

func replaySim(tr *tracer, trace string, root int, reg *obs.Registry, c *circuit.Circuit, threads int, mode core.FusionMode, lc *layerCounts) (replayed, *dd.Manager, error) {
	n := c.Qubits
	sp := tr.begin(trace, root, "dd.New", "ddsim")
	m := dd.New(n)
	m.SetMetrics(reg)
	sim := ddsim.NewWithManager(m, n)
	tr.end(sp)
	ctl := ewma.New(0, 0)

	i, fired := 0, false
	for ; i < len(c.Gates); i++ {
		sp := tr.begin(trace, root, "ddsim.ApplyGate", "ddsim")
		size := sim.ApplyGate(&c.Gates[i])
		tr.end(sp)
		sp = tr.begin(trace, root, "ewma.Observe", "ewma")
		fire := ctl.Observe(size)
		tr.end(sp)
		if fire && i+1 < len(c.Gates) {
			i++
			fired = true
			break
		}
	}
	lc.ddGates += int64(i)
	if !fired {
		return replayed{sim: sim, convertedAt: -1}, m, nil
	}

	pool := sched.New(threads)
	defer pool.Close()
	pool.SetMetrics(reg)
	// As in core, the conversion phase includes allocating the flat state
	// it fills, and the DMAV set-up allocates the scratch vector.
	sp = tr.begin(trace, root, "convert.phase", "convert")
	state := make([]complex128, uint64(1)<<uint(n))
	err := convert.ParallelIntoPool(sim.State(), n, pool, state, convert.NewMetrics(reg))
	tr.end(sp)
	if err != nil {
		return replayed{}, m, err
	}
	lc.fireGate += int64(i)
	lc.convertAmps += int64(len(state))
	sp = tr.begin(trace, root, "dmav.New", "dmav")
	buf := make([]complex128, len(state))
	eng := dmav.New(m, n, threads, dmav.Auto)
	eng.SetMetrics(reg)
	eng.SetPool(pool)
	tr.end(sp)
	sim.SetState(m.VZeroEdge())
	sp = tr.begin(trace, root, "dd.Collect", "ddsim")
	m.Collect(dd.Roots{})
	tr.end(sp)

	fz := tr.begin(trace, root, "fusion.phase", "fusion")
	remaining := make([]dd.MEdge, 0, len(c.Gates)-i)
	roots := dd.Roots{}
	for j := i; j < len(c.Gates); j++ {
		sp := tr.begin(trace, fz, "ddsim.BuildGateDD", "fusion")
		g := ddsim.BuildGateDD(m, n, &c.Gates[j])
		tr.end(sp)
		remaining = append(remaining, g)
		roots.M = append(roots.M, g)
		m.CollectIfNeeded(roots)
	}
	if mode == core.DMAVAware {
		fu := tr.begin(trace, fz, "fusion.Fuse", "fusion")
		cost := func(g dd.MEdge) float64 {
			sp := tr.begin(trace, fu, "dmav.EvaluateCost", "fusion")
			defer tr.end(sp)
			return eng.EvaluateCost(g).Cost()
		}
		res := fusion.Fuse(m, remaining, cost)
		tr.end(fu)
		remaining = res.Gates
	} else if mode != core.NoFusion {
		return replayed{}, m, fmt.Errorf("replay supports fusion none and dmav-aware, not %v", mode)
	}
	tr.end(fz)
	lc.fusionIn += int64(len(c.Gates) - i)
	lc.fusionOut += int64(len(remaining))

	for _, g := range remaining {
		sp := tr.begin(trace, root, "dmav.Apply", "dmav")
		_, err := eng.Apply(g, state, buf)
		tr.end(sp)
		if err != nil {
			return replayed{}, m, err
		}
		state, buf = buf, state
	}
	st := eng.Stats()
	lc.dmavGates += int64(st.Gates)
	lc.dmavCached += int64(st.CachedGates)
	lc.dmavHits += st.CacheHits
	lc.macsModeled += st.MACsModeled
	lc.ampUpdates += float64(st.Gates) * float64(len(state))
	for _, ws := range pool.Stats() {
		lc.schedTasks += ws.Tasks
		lc.schedSteals += ws.Steals
		lc.schedBusy += ws.Busy
		lc.schedIdle += ws.Idle
	}
	return replayed{state: state, convertedAt: i}, m, nil
}

// tracedPass is one traced pass over a workload's circuits: for each, an
// untraced RunContext (checked against the oracle) followed by its traced
// replay (checked against RunContext).
func tracedPass(tr *tracer, pass int, ins []engineInput, want [][]complex128, threads int, mode core.FusionMode) (*layerCounts, int, int, error) {
	lc := &layerCounts{}
	attempted, failed := 0, 0
	for k, in := range ins {
		c, err := in.build()
		if err != nil {
			return nil, 0, 0, err
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		sim := core.New(c.Qubits, core.Options{Threads: threads, Fusion: mode})
		st, err := sim.RunContext(context.Background(), c)
		lc.untracedWall += time.Since(t0)
		attempted++
		var got []complex128
		if err == nil {
			got = append([]complex128(nil), observe(sim, in)...)
		}
		if err != nil || !agree(got, want[k], in) {
			failed++
			warnf("%s: RunContext disagrees with the reference (err=%v)", in.Name, err)
			continue
		}
		debug.FreeOSMemory()
		rep, err := replay(tr, fmt.Sprintf("p%d-%s", pass, in.Name), c, in.Name, threads, mode, lc)
		if err != nil || rep.convertedAt != st.ConvertedAtGate || !sameAmps(rep.amps(in, threads), got) {
			failed++
			warnf("%s: replay disagrees with RunContext (err=%v, converted at %d vs %d)",
				in.Name, err, rep.convertedAt, st.ConvertedAtGate)
		}
	}
	return lc, attempted, failed, nil
}

// sameAmps compares the replay with RunContext to 1e-9 absolute.
func sameAmps(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(real(a[i])-real(b[i])) > 1e-9 || math.Abs(imag(a[i])-imag(b[i])) > 1e-9 {
			return false
		}
	}
	return true
}
