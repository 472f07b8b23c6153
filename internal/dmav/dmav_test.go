package dmav

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/dd"
	"flatdd/internal/ddsim"
	"flatdd/internal/fusion"
	"flatdd/internal/statevec"
)

const eps = 1e-9

func approx(a, b complex128) bool { return cmplx.Abs(a-b) < eps }

func randAmps(rng *rand.Rand, n int) []complex128 {
	amps := make([]complex128, 1<<uint(n))
	var norm float64
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	norm = math.Sqrt(norm)
	for i := range amps {
		amps[i] /= complex(norm, 0)
	}
	return amps
}

func randomGate(rng *rand.Rand, n int) circuit.Gate {
	switch rng.Intn(7) {
	case 0:
		return circuit.H(rng.Intn(n))
	case 1:
		return circuit.T(rng.Intn(n))
	case 2:
		return circuit.U3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.Intn(n))
	case 3:
		a, b := twoDistinct(rng, n)
		return circuit.CX(a, b)
	case 4:
		a, b := twoDistinct(rng, n)
		return circuit.CP(rng.NormFloat64(), a, b)
	case 5:
		a, b := twoDistinct(rng, n)
		return circuit.FSim(rng.NormFloat64(), rng.NormFloat64(), a, b)
	default:
		a, b := twoDistinct(rng, n)
		c := rng.Intn(n)
		for c == a || c == b {
			c = rng.Intn(n)
		}
		if n >= 3 {
			return circuit.CCX(a, c, b)
		}
		return circuit.CX(a, b)
	}
}

func twoDistinct(rng *rand.Rand, n int) (int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n)
	for b == a {
		b = rng.Intn(n)
	}
	return a, b
}

func TestApplyMatchesOracleAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for _, mode := range []Mode{Auto, NeverCache, AlwaysCache} {
		for _, threads := range []int{1, 2, 3, 4, 5, 7, 8} {
			for trial := 0; trial < 6; trial++ {
				n := 3 + rng.Intn(4)
				m := dd.New(n)
				g := randomGate(rng, n)
				M := ddsim.BuildGateDD(m, n, &g)

				V := randAmps(rng, n)
				// Oracle: statevec application of the same gate.
				sv := statevec.FromAmplitudes(append([]complex128(nil), V...), 1)
				sv.Apply(&g)
				want := sv.Amplitudes()

				e := New(m, n, threads, mode)
				W := make([]complex128, len(V))
				e.Apply(M, V, W)
				for i := range want {
					if !approx(W[i], want[i]) {
						t.Fatalf("mode=%v threads=%d n=%d gate=%s: W[%d]=%v want %v",
							mode, threads, n, g.Name, i, W[i], want[i])
					}
				}
			}
		}
	}
}

// TestApplyPooledMatchesOracle covers the pool-batched execution paths:
// states below serialCutoffDim run inline, so this test uses n=12 (4096
// amplitudes) to force real sched batches through both algorithms.
func TestApplyPooledMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 12
	m := dd.New(n)
	V := randAmps(rng, n)
	for _, mode := range []Mode{NeverCache, AlwaysCache} {
		for _, threads := range []int{3, 8} {
			e := New(m, n, threads, mode)
			if e.inline() {
				t.Fatalf("threads=%d n=%d: engine chose inline execution; cutoff test is vacuous", threads, n)
			}
			for trial := 0; trial < 3; trial++ {
				g := randomGate(rng, n)
				M := ddsim.BuildGateDD(m, n, &g)
				sv := statevec.FromAmplitudes(append([]complex128(nil), V...), 1)
				sv.Apply(&g)
				want := sv.Amplitudes()
				W := make([]complex128, len(V))
				e.Apply(M, V, W)
				for i := range want {
					if !approx(W[i], want[i]) {
						t.Fatalf("mode=%v threads=%d gate=%s: W[%d]=%v want %v",
							mode, threads, g.Name, i, W[i], want[i])
					}
				}
			}
			e.Close()
		}
	}
}

func TestCachedAndUncachedAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 6
	m := dd.New(n)
	V := randAmps(rng, n)
	for trial := 0; trial < 10; trial++ {
		g := randomGate(rng, n)
		M := ddsim.BuildGateDD(m, n, &g)
		w1 := make([]complex128, len(V))
		w2 := make([]complex128, len(V))
		New(m, n, 4, NeverCache).Apply(M, V, w1)
		New(m, n, 4, AlwaysCache).Apply(M, V, w2)
		for i := range w1 {
			if !approx(w1[i], w2[i]) {
				t.Fatalf("trial %d gate %s: cached %v vs uncached %v at %d",
					trial, g.Name, w2[i], w1[i], i)
			}
		}
	}
}

// TestThreadsArbitraryCount is the ISSUE 3 regression test: thread
// counts are no longer rounded down to a power of two. Threads() keeps
// the requested count (clamped to [1, 2^n]); only the cached-path chunk
// count (CacheChunks) rounds up to a power of two, because the
// border-level column split must stay aligned with the DD.
func TestThreadsArbitraryCount(t *testing.T) {
	m := dd.New(5)
	cases := map[int]int{1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 7: 7, 8: 8, 16: 16, 100: 32}
	for in, want := range cases {
		if got := New(m, 5, in, Auto).Threads(); got != want {
			t.Errorf("threads %d -> %d, want %d", in, got, want)
		}
	}
	chunkCases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 16: 16, 100: 32}
	for in, want := range chunkCases {
		if got := New(m, 5, in, Auto).CacheChunks(); got != want {
			t.Errorf("threads %d -> %d cache chunks, want %d", in, got, want)
		}
	}
	// Clamped to [1, 2^n].
	if got := New(m, 2, 16, Auto).Threads(); got != 4 {
		t.Errorf("threads capped: got %d, want 4", got)
	}
	if got := New(m, 5, -3, Auto).Threads(); got != 1 {
		t.Errorf("threads floored: got %d, want 1", got)
	}
}

// TestThreadsThreeCorrect exercises the previously-illegal odd thread
// count end to end against the statevec oracle, in every caching mode.
func TestThreadsThreeCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 6
	m := dd.New(n)
	V := randAmps(rng, n)
	for _, mode := range []Mode{Auto, NeverCache, AlwaysCache} {
		for trial := 0; trial < 5; trial++ {
			g := randomGate(rng, n)
			M := ddsim.BuildGateDD(m, n, &g)
			W := make([]complex128, len(V))
			e := New(m, n, 3, mode)
			e.Apply(M, V, W)
			e.Close()
			sv := statevec.FromAmplitudes(append([]complex128(nil), V...), 1)
			sv.Apply(&g)
			for i, a := range sv.Amplitudes() {
				if !approx(W[i], a) {
					t.Fatalf("mode %v trial %d gate %s: W[%d] = %v, oracle %v",
						mode, trial, g.Name, i, W[i], a)
				}
			}
		}
	}
}

// runGeneric is the kernel run replaced: it descends every nonzero entry
// of the gate DD to the terminal and performs one multiply-accumulate
// there. It stays as the oracle run must be bit-identical to.
func runGeneric(edge dd.MEdge, V, W []complex128, iv, iw uint64, f complex128) {
	n := edge.N
	if n.Level == dd.TerminalLevel {
		W[iw] += f * edge.W * V[iv]
		return
	}
	l := uint(n.Level)
	fw := f * edge.W
	if c := n.E[0]; !c.IsZero() {
		runGeneric(c, V, W, iv, iw, fw)
	}
	if c := n.E[1]; !c.IsZero() {
		runGeneric(c, V, W, iv+1<<l, iw, fw)
	}
	if c := n.E[2]; !c.IsZero() {
		runGeneric(c, V, W, iv, iw+1<<l, fw)
	}
	if c := n.E[3]; !c.IsZero() {
		runGeneric(c, V, W, iv+1<<l, iw+1<<l, fw)
	}
}

// TestRunBitIdenticalToGeneric checks that the identity and leaf shortcuts
// in run change no bit of the output: an engine running run and one
// running runGeneric must produce == amplitudes for gates on the lowest,
// a middle and the highest qubit, controlled gates and fused gates, in
// every caching mode and at 1-3 threads (n=12 is at the pool cutoff, so
// threads > 1 run real batches). Their Stats must agree too: the cost
// model does not see the kernel.
func TestRunBitIdenticalToGeneric(t *testing.T) {
	const n = 12
	m := dd.New(n)
	rng := rand.New(rand.NewSource(12))
	gates := []circuit.Gate{
		circuit.H(0), circuit.H(n / 2), circuit.H(n - 1),
		circuit.T(0), circuit.U3(0.3, 1.1, -0.7, n-1), circuit.U3(-1.2, 0.4, 2.5, n/2),
		circuit.CX(n-1, 0), circuit.CX(0, n-1), circuit.CX(3, 7),
		circuit.CP(0.9, 5, 8), circuit.CCX(2, 9, 5), circuit.FSim(0.5, 0.2, 2, 11),
	}
	var Ms []dd.MEdge
	for i := range gates {
		Ms = append(Ms, ddsim.BuildGateDD(m, n, &gates[i]))
	}
	var seq []dd.MEdge
	for i := 0; i < 16; i++ {
		g := randomGate(rng, n)
		seq = append(seq, ddsim.BuildGateDD(m, n, &g))
	}
	model := New(m, n, 2, Auto)
	cost := func(g dd.MEdge) float64 { return model.EvaluateCost(g).Cost() }
	Ms = append(Ms, fusion.Fuse(m, seq, cost).Gates...)
	Ms = append(Ms, fusion.KOperations(m, seq, 3, cost).Gates...)
	V := randAmps(rng, n)

	for _, mode := range []Mode{NeverCache, AlwaysCache, Auto} {
		for _, threads := range []int{1, 2, 3} {
			e := New(m, n, threads, mode)
			o := New(m, n, threads, mode)
			o.kern = runGeneric
			W := make([]complex128, len(V))
			want := make([]complex128, len(V))
			for gi, M := range Ms {
				if _, err := e.Apply(M, V, W); err != nil {
					t.Fatal(err)
				}
				if _, err := o.Apply(M, V, want); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if W[i] != want[i] {
						t.Fatalf("mode=%v threads=%d gate %d: W[%d] = %v, generic %v",
							mode, threads, gi, i, W[i], want[i])
					}
				}
			}
			if es, os := e.Stats(), o.Stats(); es.CachedGates != os.CachedGates || es.MACsModeled != os.MACsModeled {
				t.Fatalf("mode=%v threads=%d: stats %+v, generic %+v", mode, threads, es, os)
			}
			e.Close()
			o.Close()
		}
	}
}

func TestCostModelIdentity(t *testing.T) {
	n := 8
	m := dd.New(n)
	e := New(m, n, 4, Auto)
	id := m.Identity(n)
	c := e.EvaluateCost(id)
	if c.K1 != 1<<uint(n) {
		t.Fatalf("K1 = %d, want %d", c.K1, 1<<uint(n))
	}
	if c.C1 != float64(c.K1)/4 {
		t.Fatalf("C1 = %v", c.C1)
	}
	// Identity is block-diagonal: each column chunk holds exactly one
	// border task, its diagonal block (off-diagonal blocks are zero), so
	// no chunk repeats a node and there are no cache hits.
	if c.Hits != 0 {
		t.Fatalf("identity should have no repeated tasks, H=%d", c.Hits)
	}
	// Diagonal blocks have disjoint outputs: one shared buffer suffices.
	if c.Buffers != 1 {
		t.Fatalf("identity buffers = %d, want 1", c.Buffers)
	}
}

func TestCostModelHadamardTopHasHits(t *testing.T) {
	// H on the top qubit: all four top blocks are (+/-) the same
	// half-identity, so column-space assignment gives every thread two
	// tasks on the same node -> one hit per thread at t>=2.
	n := 6
	m := dd.New(n)
	e := New(m, n, 4, Auto)
	M := m.SingleGate(n, dd.Matrix2{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	}, n-1)
	c := e.EvaluateCost(M)
	if c.Hits == 0 {
		t.Fatal("expected cache hits for top-qubit Hadamard")
	}
	if c.K2 >= c.K1 {
		t.Fatalf("K2=%d not smaller than K1=%d despite hits", c.K2, c.K1)
	}
}

func TestAutoModeMatchesDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 6
	m := dd.New(n)
	e := New(m, n, 4, Auto)
	V := randAmps(rng, n)
	W := make([]complex128, len(V))
	g := circuit.H(n - 1)
	M := ddsim.BuildGateDD(m, n, &g)
	cost, err := e.Apply(M, V, W)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	st := e.Stats()
	if cost.UseCache() && st.CachedGates != 1 {
		t.Fatalf("cost prefers cache but engine did not cache: %+v", st)
	}
	if !cost.UseCache() && st.CachedGates != 0 {
		t.Fatalf("cost rejects cache but engine cached: %+v", st)
	}
	if st.Gates != 1 {
		t.Fatalf("gates = %d", st.Gates)
	}
}

func TestCacheHitsReduceExecutedMACs(t *testing.T) {
	// With AlwaysCache on a top-qubit Hadamard the engine must record
	// hits, and the result must still be correct (covered elsewhere).
	rng := rand.New(rand.NewSource(13))
	n := 7
	m := dd.New(n)
	e := New(m, n, 8, AlwaysCache)
	g := circuit.H(n - 1)
	M := ddsim.BuildGateDD(m, n, &g)
	V := randAmps(rng, n)
	W := make([]complex128, len(V))
	e.Apply(M, V, W)
	if e.Stats().CacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestZeroMatrixYieldsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4
	m := dd.New(n)
	e := New(m, n, 2, Auto)
	V := randAmps(rng, n)
	W := make([]complex128, len(V))
	W[3] = 42 // must be cleared
	e.Apply(m.MZeroEdge(), V, W)
	for i := range W {
		if W[i] != 0 {
			t.Fatalf("W[%d] = %v, want 0", i, W[i])
		}
	}
}

func TestLinearityProperty(t *testing.T) {
	// DMAV(M, aV1 + bV2) == a DMAV(M,V1) + b DMAV(M,V2)
	rng := rand.New(rand.NewSource(21))
	n := 5
	m := dd.New(n)
	for trial := 0; trial < 5; trial++ {
		g := randomGate(rng, n)
		M := ddsim.BuildGateDD(m, n, &g)
		e := New(m, n, 4, Auto)
		v1 := randAmps(rng, n)
		v2 := randAmps(rng, n)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		b := complex(rng.NormFloat64(), rng.NormFloat64())
		mix := make([]complex128, len(v1))
		for i := range mix {
			mix[i] = a*v1[i] + b*v2[i]
		}
		w1 := make([]complex128, len(v1))
		w2 := make([]complex128, len(v1))
		wm := make([]complex128, len(v1))
		e.Apply(M, v1, w1)
		e.Apply(M, v2, w2)
		e.Apply(M, mix, wm)
		for i := range wm {
			if !approx(wm[i], a*w1[i]+b*w2[i]) {
				t.Fatalf("linearity violated at %d: %v vs %v", i, wm[i], a*w1[i]+b*w2[i])
			}
		}
	}
}

func TestSequenceOfGatesMatchesStatevec(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 7
	m := dd.New(n)
	e := New(m, n, 4, Auto)
	V := make([]complex128, 1<<uint(n))
	V[0] = 1
	W := make([]complex128, len(V))
	sv := statevec.New(n, 1)
	for step := 0; step < 30; step++ {
		g := randomGate(rng, n)
		M := ddsim.BuildGateDD(m, n, &g)
		e.Apply(M, V, W)
		V, W = W, V
		sv.Apply(&g)
	}
	for i := range V {
		if !approx(V[i], sv.Amplitudes()[i]) {
			t.Fatalf("diverged at amplitude %d: %v vs %v", i, V[i], sv.Amplitudes()[i])
		}
	}
}

func TestApplyRejectsAliasOrBadLength(t *testing.T) {
	m := dd.New(3)
	e := New(m, 3, 2, Auto)
	V := make([]complex128, 8)
	if _, err := e.Apply(m.Identity(3), V, V); err == nil {
		t.Fatal("aliased V/W not rejected")
	}
	if _, err := e.Apply(m.Identity(3), V, make([]complex128, 4)); err == nil {
		t.Fatal("short W not rejected")
	}
	if _, err := e.Apply(m.Identity(3), make([]complex128, 4), make([]complex128, 8)); err == nil {
		t.Fatal("short V not rejected")
	}
	// A rejected Apply must not have counted a gate.
	if st := e.Stats(); st.Gates != 0 {
		t.Fatalf("rejected Apply counted %d gates", st.Gates)
	}
}

func TestScalarMulInto(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 7, 16} {
		src := make([]complex128, n)
		dst := make([]complex128, n)
		for i := range src {
			src[i] = complex(float64(i), float64(-i))
		}
		scalarMulInto(dst, src, 2i)
		for i := range dst {
			if dst[i] != src[i]*2i {
				t.Fatalf("n=%d dst[%d]=%v", n, i, dst[i])
			}
		}
	}
}

func TestAddInto(t *testing.T) {
	for _, n := range []int{0, 1, 5, 8, 13} {
		dst := make([]complex128, n)
		src := make([]complex128, n)
		for i := range src {
			dst[i] = complex(1, 1)
			src[i] = complex(float64(i), 0)
		}
		addInto(dst, src)
		for i := range dst {
			if dst[i] != complex(1+float64(i), 1) {
				t.Fatalf("n=%d dst[%d]=%v", n, i, dst[i])
			}
		}
	}
}

func BenchmarkDMAVUncachedSupremacyGate(b *testing.B) {
	benchDMAV(b, NeverCache)
}

func BenchmarkDMAVCachedSupremacyGate(b *testing.B) {
	benchDMAV(b, AlwaysCache)
}

func benchDMAV(b *testing.B, mode Mode) {
	rng := rand.New(rand.NewSource(1))
	n := 14
	m := dd.New(n)
	g := circuit.FSim(0.5, 0.2, 2, 11)
	M := ddsim.BuildGateDD(m, n, &g)
	V := randAmps(rng, n)
	W := make([]complex128, len(V))
	e := New(m, n, 4, mode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Apply(M, V, W)
	}
}

func TestBufferSharingOffStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 6
	m := dd.New(n)
	V := randAmps(rng, n)
	for trial := 0; trial < 6; trial++ {
		g := randomGate(rng, n)
		M := ddsim.BuildGateDD(m, n, &g)
		on := New(m, n, 4, AlwaysCache)
		off := New(m, n, 4, AlwaysCache)
		off.SetBufferSharing(false)
		w1 := make([]complex128, len(V))
		w2 := make([]complex128, len(V))
		on.Apply(M, V, w1)
		off.Apply(M, V, w2)
		for i := range w1 {
			if !approx(w1[i], w2[i]) {
				t.Fatalf("gate %s: buffer-sharing off diverges at %d", g.Name, i)
			}
		}
	}
}

func TestBufferSharingReducesBuffers(t *testing.T) {
	// The identity's diagonal blocks have disjoint outputs: with sharing
	// one buffer suffices, without it every thread allocates one.
	n := 6
	m := dd.New(n)
	e := New(m, n, 4, AlwaysCache)
	c := e.EvaluateCost(m.Identity(n))
	if c.Buffers != 1 {
		t.Fatalf("shared buffers = %d, want 1", c.Buffers)
	}
	e.SetBufferSharing(false)
	c = e.EvaluateCost(m.Identity(n))
	if c.Buffers != 4 {
		t.Fatalf("unshared buffers = %d, want 4", c.Buffers)
	}
}

func TestSIMDWidthChangesCostModel(t *testing.T) {
	// Equation 6: larger d makes caching cheaper; the decision can flip.
	n := 8
	m := dd.New(n)
	g := circuit.H(n - 1)
	M := ddsim.BuildGateDD(m, n, &g)
	e := New(m, n, 4, Auto)
	e.SetSIMDWidth(1)
	c1 := e.EvaluateCost(M)
	e.SetSIMDWidth(64)
	c64 := e.EvaluateCost(M)
	if c64.C2 >= c1.C2 {
		t.Fatalf("larger SIMD width did not lower C2: %v vs %v", c64.C2, c1.C2)
	}
	if c1.C1 != c64.C1 {
		t.Fatal("C1 must not depend on the SIMD width")
	}
	e.SetSIMDWidth(0) // clamps to 1
	if got := e.EvaluateCost(M).C2; got != c1.C2 {
		t.Fatalf("width clamp broken: %v vs %v", got, c1.C2)
	}
}
