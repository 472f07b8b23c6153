package dmav

// Vector kernels standing in for the paper's AVX2 SIMD routines. The loops
// are 4-way unrolled over contiguous []complex128 so the compiler emits
// straight-line FMA-friendly code; the unroll factor matches
// DefaultSIMDWidth, the d parameter of the Equation 6 cost model.

// scalarMulInto sets dst[i] = src[i] * w. dst and src must have equal
// length and may not overlap partially (identical or disjoint only).
func scalarMulInto(dst, src []complex128, w complex128) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = src[i] * w
		dst[i+1] = src[i+1] * w
		dst[i+2] = src[i+2] * w
		dst[i+3] = src[i+3] * w
	}
	for ; i < n; i++ {
		dst[i] = src[i] * w
	}
}

// addInto accumulates dst[i] += src[i].
func addInto(dst, src []complex128) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// axpy accumulates dst[i] += a * src[i]: the DMAV update of an identity
// sub-block. dst and src must have equal length and must not overlap.
func axpy(dst, src []complex128, a complex128) {
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += a * src[i]
		dst[i+1] += a * src[i+1]
		dst[i+2] += a * src[i+2]
		dst[i+3] += a * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += a * src[i]
	}
}

// zero clears a vector.
func zero(v []complex128) {
	clear(v)
}
