package main

import (
	"io"
	"math/cmplx"
	"reflect"
	"testing"

	"flatdd/internal/core"
	"flatdd/internal/statevec"
)

func hashes(t *testing.T, ins []engineInput) []string {
	t.Helper()
	var out []string
	for _, in := range ins {
		c, err := in.build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c.Hash())
	}
	return out
}

func TestEngineInputsDependOnSeed(t *testing.T) {
	for _, name := range []string{"deep-flat", "dd-regular"} {
		w := engineWorkloads[name]
		a, wa, err := engineInputs(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, wb, _ := engineInputs(w, 1)
		c, _, _ := engineInputs(w, 2)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(wa, wb) || !reflect.DeepEqual(hashes(t, a), hashes(t, b)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(hashes(t, a), hashes(t, c)) {
			t.Errorf("%s: a different seed gave the same circuits", name)
		}
	}
}

// The analytic oracle of the large regular circuits is checked against
// statevec at a size statevec can hold.
func TestAnalyticOracleMatchesStatevec(t *testing.T) {
	for _, family := range []string{"qft", "adder", "bv", "ghz", "wstate"} {
		for _, seed := range []int64{3, 4} {
			in := engineInput{Name: family, Family: family, N: 10, Seed: seed}
			c, err := in.build()
			if err != nil {
				t.Fatal(err)
			}
			probes, want, err := analytic(in, c)
			if err != nil {
				t.Fatal(err)
			}
			sv := statevec.New(in.N, 1)
			sv.ApplyCircuit(c)
			for i, idx := range probes {
				if got := sv.Amplitudes()[idx]; cmplx.Abs(got-want[i]) > 1e-12 {
					t.Errorf("%s seed %d: amplitude %d = %v, analytic %v", family, seed, idx, got, want[i])
				}
			}
		}
	}
}

var smallFlat = engineWorkload{fusion: core.DMAVAware, circuits: []circuitSpec{{"supremacy", 10}, {"qv", 8}}}

func TestReplayMatchesRunContext(t *testing.T) {
	for _, w := range []engineWorkload{
		smallFlat,
		{fusion: core.NoFusion, circuits: []circuitSpec{{"knn", 9}, {"swaptest", 9}}},
		{fusion: core.NoFusion, circuits: []circuitSpec{{"ghz", 40}, {"qft", 30}}},
	} {
		ins, want, err := engineSetup(w, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		lc, attempted, failed, err := tracedPass(newTracer(), 0, ins, want, 2, w.fusion)
		if err != nil {
			t.Fatal(err)
		}
		if attempted != len(ins) || failed != 0 {
			t.Errorf("%v: %d of %d circuits failed", w.circuits, failed, attempted)
		}
		if lc.ddGates == 0 {
			t.Errorf("%v: replay applied no DD-phase gates", w.circuits)
		}
	}
}

// runChild connects engineChild and talkToChild through pipes, as the
// parent and child processes are connected.
func runChild(t *testing.T, job childJob, want [][]complex128) *engineRun {
	t.Helper()
	toChild, childIn := io.Pipe()
	childOut, fromChild := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := engineChild(toChild, fromChild)
		fromChild.Close()
		done <- err
	}()
	res, err := talkToChild(job, want, childIn, newBufReader(childOut))
	childIn.Close()
	if cerr := <-done; cerr != nil {
		t.Fatalf("child: %v", cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEngineChildProtocolChecksEveryResult(t *testing.T) {
	w := engineWorkload{fusion: core.DMAVAware, circuits: []circuitSpec{{"qv", 8}, {"ghz", 50}}}
	ins, want, err := engineSetup(w, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	job := childJob{Threads: 1, Fusion: int(w.fusion), Inputs: ins}
	res := runChild(t, job, want)
	if res.attempted != 2 || res.failed != 0 || len(res.passWall) != 1 {
		t.Fatalf("attempted %d failed %d passes %d, want 2, 0, 1", res.attempted, res.failed, len(res.passWall))
	}
	if res.passWall[0] <= 0 || res.passCPU[0] <= 0 {
		t.Errorf("pass wall %v cpu %v, want both positive", res.passWall[0], res.passCPU[0])
	}
	// A reference that disagrees in one amplitude by more than the
	// tolerance must be reported as a wrong result.
	for i := range want {
		want[i] = append([]complex128(nil), want[i]...)
		want[i][len(want[i])-1] += 1e-6
	}
	if res := runChild(t, job, want); res.failed != 2 {
		t.Errorf("%d of 2 wrong results detected", res.failed)
	}
}
