package cnum

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLookupSnapsNearbyValues(t *testing.T) {
	tbl := NewTable(1e-10)
	a := tbl.Lookup(complex(math.Sqrt2/2, 0))
	b := tbl.Lookup(complex(0.70710678118654757, 0)) // one ulp-ish away
	if a != b {
		t.Fatalf("nearby values not snapped: %v vs %v", a, b)
	}
}

func TestLookupDistinguishesFarValues(t *testing.T) {
	tbl := NewTable(1e-10)
	a := tbl.Lookup(complex(0.5, 0))
	b := tbl.Lookup(complex(0.5+1e-6, 0))
	if a == b {
		t.Fatalf("distinct values wrongly merged: %v", a)
	}
}

func TestLookupZeroIsCanonical(t *testing.T) {
	tbl := NewTable(0)
	if z := tbl.Lookup(complex(math.Copysign(0, -1), 0)); z != 0 {
		t.Fatalf("negative zero not canonicalized: %v", z)
	}
	if z := tbl.Lookup(0); z != 0 {
		t.Fatalf("zero not canonical: %v", z)
	}
}

func TestLookupIdempotent(t *testing.T) {
	tbl := NewTable(0)
	f := func(re, im float64) bool {
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return true
		}
		// Keep magnitudes in the range amplitudes actually occupy.
		re = math.Mod(re, 2)
		im = math.Mod(im, 2)
		c := complex(re, im)
		once := tbl.Lookup(c)
		twice := tbl.Lookup(once)
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupWithinTolerance(t *testing.T) {
	tbl := NewTable(1e-10)
	f := func(re, im float64) bool {
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return true
		}
		re = math.Mod(re, 2)
		im = math.Mod(im, 2)
		c := complex(re, im)
		got := tbl.Lookup(c)
		return cmplx.Abs(got-c) <= 2*tbl.Tolerance()*math.Sqrt2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSeededConstantsExact(t *testing.T) {
	tbl := NewTable(0)
	cases := []float64{0, 1, -1, 0.5, -0.5, math.Sqrt2 / 2, -math.Sqrt2 / 2}
	for _, v := range cases {
		if got := tbl.LookupFloat(v); got != v {
			t.Errorf("seeded constant %v mapped to %v", v, got)
		}
	}
}

// TestLookupOrderIndependent feeds three fresh tables the same values in
// forward, reversed and shuffled order: every value must snap to the same
// bits whatever was interned before it. Each base value comes with two
// ulp-scale neighbors in its bucket, where a first-comer table would hand
// out whichever arrived first, and every other base sits within an ulp of
// a bucket boundary.
func TestLookupOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tol := 1e-10
	step := NewTable(tol).step
	var vals []complex128
	for i := 0; i < 300; i++ {
		re := math.Sin(float64(i))
		if i%2 == 1 {
			// Nudge onto the midpoint between two grid buckets.
			re = (math.Round(re/step) + 0.5) * step
			re = math.Nextafter(re, float64(i%4-2))
		}
		im := rng.NormFloat64()
		for _, f := range []float64{1, 1 + 1e-14, 1 - 1e-14} {
			vals = append(vals, complex(re*f, im*f))
		}
	}
	n := len(vals)
	orders := map[string][]int{"forward": make([]int, n), "reversed": make([]int, n)}
	for i := range n {
		orders["forward"][i] = i
		orders["reversed"][i] = n - 1 - i
	}
	orders["shuffled"] = rng.Perm(n)

	snaps := map[string][]complex128{}
	for name, order := range orders {
		tbl := NewTable(tol)
		out := make([]complex128, n)
		for _, i := range order {
			out[i] = tbl.Lookup(vals[i])
		}
		snaps[name] = out
	}
	for _, name := range []string{"reversed", "shuffled"} {
		for i := range vals {
			if KeyOf(snaps[name][i]) != KeyOf(snaps["forward"][i]) {
				t.Fatalf("%s order snaps value %d to %v, forward order to %v",
					name, i, snaps[name][i], snaps["forward"][i])
			}
		}
	}
}

func TestKeyOfDistinguishesCanonicalValues(t *testing.T) {
	tbl := NewTable(0)
	a := tbl.Lookup(complex(0.25, 0.75))
	b := tbl.Lookup(complex(0.75, 0.25))
	if KeyOf(a) == KeyOf(b) {
		t.Fatal("distinct canonical values share a key")
	}
	if KeyOf(a) != KeyOf(tbl.Lookup(a)) {
		t.Fatal("key not stable under re-lookup")
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1+1i, 1+1i, 0) {
		t.Fatal("identical values not approx-equal")
	}
	if !ApproxEqual(1, 1+1e-12, 1e-10) {
		t.Fatal("values within tol not approx-equal")
	}
	if ApproxEqual(1, 1.1, 1e-10) {
		t.Fatal("values beyond tol approx-equal")
	}
}

func TestStatsProgress(t *testing.T) {
	tbl := NewTable(1e-10)
	tbl.Lookup(complex(0.123456, 0.654321))
	tbl.Lookup(complex(0.123456, 0.654321))
	lookups, hits, inserted := tbl.Stats()
	if lookups == 0 || inserted == 0 {
		t.Fatalf("stats not tracking: lookups=%d inserted=%d", lookups, inserted)
	}
	if hits == 0 {
		t.Fatalf("repeated lookup should hit, stats: lookups=%d hits=%d", lookups, hits)
	}
	if tbl.Size() == 0 {
		t.Fatal("size should be positive")
	}
}

func BenchmarkLookupHit(b *testing.B) {
	tbl := NewTable(1e-10)
	v := complex(math.Sqrt2/2, -math.Sqrt2/2)
	tbl.Lookup(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(v)
	}
}
