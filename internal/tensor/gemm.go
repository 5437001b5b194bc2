package tensor

import (
	"runtime"
	"sync"
)

// Small GEMM kernels backing the im2col convolution path in internal/nn.
// All operands are dense row-major float64 slices owned by the caller;
// every kernel writes into a preallocated destination so the hot path
// performs no allocation on small shapes. Matrices here are tiny-to-small
// (tens to a few hundred per side — CommCNN's largest is 8×72×208), and Go
// emits scalar SSE2 for these loops, so the kernels are register-blocked
// rather than cache-tuned: each generic kernel folds four terms into one
// load and store of a dst element (MatMul, MatMulATB) or runs four
// independent dot-product chains off one load of the shared operand
// (MatMulABTAcc), with slice-length hints that remove the bounds checks
// from the inner loops. One level of k/j blocking keeps the working set in
// L1/L2 on larger shapes.
//
// The blocking is order-preserving: every dst element accumulates exactly
// the terms of the plain per-term loop, in the same order, and a 4-term
// group holding a zero a value falls back to that loop, whose zero-skip
// (a -0 dst stays -0, Inf·0 is never formed) it therefore keeps. The
// kernels are Float64bits-identical to the per-term loops retained in
// gemm_reference_test.go, so trained models do not move when they change.
// The n ≤ 4 and k = 3 paths and the gather kernels serve the Phase III
// combiner's class-count shapes; they keep the same per-element order but
// add zero terms instead of skipping them.
//
// Above gemmParallelFlops of work each kernel fans its output rows across
// GOMAXPROCS goroutines. The split is over OUTPUT rows only, so every dst
// element is still accumulated by exactly one goroutine in exactly the
// serial loop's order — parallel and serial results are bit-identical,
// and worker count is a pure speed knob (the same contract internal/gbdt
// makes for tree training). Small shapes (all of CommCNN's) stay on the
// serial zero-allocation path.

// gemm block sizes: bkK rows of B (each bkJ wide) fit comfortably in L1
// alongside the C row being accumulated.
const (
	gemmBlockK = 128
	gemmBlockJ = 512
)

// gemmParallelFlops gates the fan-out: below ~1M multiply-adds the
// goroutine spawn + WaitGroup costs more than it saves, and spawning
// would break internal/nn's zero-allocation training contract.
const gemmParallelFlops = 1 << 20

// gemmWorkers picks the goroutine count for `rows` independent output
// rows totalling `flops` work, returning 1 when the serial path should
// run.
func gemmWorkers(rows, flops int) int {
	if flops < gemmParallelFlops {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w > rows {
		w = rows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelRows invokes fn(lo, hi) over `workers` contiguous row ranges
// covering [0, rows) and waits for all of them.
func parallelRows(rows, workers int, fn func(lo, hi int)) {
	if workers <= 1 {
		fn(0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMul computes dst = a·b where a is m×k and b is k×n, both row-major.
// dst must have length m*n; it is fully overwritten. b is consumed in its
// natural row-major layout (no transpose), so the inner loop is contiguous
// over both b and dst.
func MatMul(dst, a, b []float64, m, k, n int) {
	checkGemm(len(dst), len(a), len(b), m, k, n)
	clear(dst[:m*n])
	matMulAcc(dst, a, b, m, k, n)
}

// MatMulAcc computes dst += a·b with the same shapes as MatMul.
func MatMulAcc(dst, a, b []float64, m, k, n int) {
	checkGemm(len(dst), len(a), len(b), m, k, n)
	matMulAcc(dst, a, b, m, k, n)
}

func matMulAcc(dst, a, b []float64, m, k, n int) {
	if w := gemmWorkers(m, m*k*n); w > 1 {
		// Row blocks share only read-only operands; each dst row keeps the
		// serial k0/kk accumulation order.
		parallelRows(m, w, func(lo, hi int) {
			matMulAccRows(dst, a, b, lo, hi, k, n)
		})
		return
	}
	matMulAccRows(dst, a, b, 0, m, k, n)
}

// matMulAccRows is the serial kernel restricted to dst rows [i0, i1).
func matMulAccRows(dst, a, b []float64, i0, i1, k, n int) {
	if n <= 4 {
		// Skinny destinations (n ≤ 4 — the softmax-regression logit shape:
		// n = class count) keep each dst row in registers across the whole
		// k loop instead of re-loading and re-storing ci[j] every kk. Each
		// dst element still accumulates its terms in ascending-kk order, so
		// the result is identical to the blocked path below.
		matMulAccRowsSkinny(dst, a, b, i0, i1, k, n)
		return
	}
	for k0 := 0; k0 < k; k0 += gemmBlockK {
		k1 := min(k0+gemmBlockK, k)
		for j0 := 0; j0 < n; j0 += gemmBlockJ {
			j1 := min(j0+gemmBlockJ, n)
			for i := i0; i < i1; i++ {
				ci := dst[i*n+j0 : i*n+j1]
				ai := a[i*k : (i+1)*k]
				kk := k0
				for ; kk+4 <= k1; kk += 4 {
					a0, a1, a2, a3 := ai[kk], ai[kk+1], ai[kk+2], ai[kk+3]
					if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
						for t := kk; t < kk+4; t++ {
							axpy(ci, ai[t], b[t*n+j0:t*n+j1])
						}
						continue
					}
					b0 := b[kk*n+j0 : kk*n+j1]
					b1 := b[(kk+1)*n+j0 : (kk+1)*n+j1]
					b2 := b[(kk+2)*n+j0 : (kk+2)*n+j1]
					b3 := b[(kk+3)*n+j0 : (kk+3)*n+j1]
					b1, b2, b3, c := b1[:len(b0)], b2[:len(b0)], b3[:len(b0)], ci[:len(b0)]
					for j, bv := range b0 {
						v := c[j]
						v += a0 * bv
						v += a1 * b1[j]
						v += a2 * b2[j]
						v += a3 * b3[j]
						c[j] = v
					}
				}
				for ; kk < k1; kk++ {
					axpy(ci, ai[kk], b[kk*n+j0:kk*n+j1])
				}
			}
		}
	}
}

// axpy is the per-term step every generic kernel falls back to: dst +=
// av·x, skipped entirely when av is zero (so a -0 dst element stays -0
// and an Inf or NaN in x never meets a zero weight).
func axpy(dst []float64, av float64, x []float64) {
	if av == 0 {
		return
	}
	dst = dst[:len(x)]
	for j, xv := range x {
		dst[j] += av * xv
	}
}

// matMulAccRowsSkinny handles n ≤ 4 with per-row register accumulators.
// Rows are processed in pairs so the streamed B row is loaded once for
// two A rows; within a row, dst[i*n+j] accumulates a[i*k+kk]*b[kk*n+j]
// over ascending kk — exactly the blocked kernel's per-element order, so
// the two paths agree bit for bit.
func matMulAccRowsSkinny(dst, a, b []float64, i0, i1, k, n int) {
	switch n {
	case 3:
		matMulAccRows3(dst, a, b, i0, i1, k)
		return
	case 1:
		for i := i0; i < i1; i++ {
			ai := a[i*k : (i+1)*k]
			s := dst[i]
			for kk, av := range ai {
				s += av * b[kk]
			}
			dst[i] = s
		}
		return
	}
	for i := i0; i < i1; i++ {
		ai := a[i*k : (i+1)*k]
		var s0, s1, s2, s3 float64
		di := dst[i*n : (i+1)*n]
		s0, s1 = di[0], di[1]
		if n == 4 {
			s2, s3 = di[2], di[3]
		}
		for kk, av := range ai {
			bk := b[kk*n : kk*n+n]
			s0 += av * bk[0]
			s1 += av * bk[1]
			if n == 4 {
				s2 += av * bk[2]
				s3 += av * bk[3]
			}
		}
		di[0], di[1] = s0, s1
		if n == 4 {
			di[2], di[3] = s2, s3
		}
	}
}

// matMulAccRows3 is the n = 3 kernel (social.NumLabels classes — the
// Phase III combiner's logit shape): two rows per pass share one read of
// each B row, six independent accumulator chains hide the FP add latency.
func matMulAccRows3(dst, a, b []float64, i0, i1, k int) {
	b3 := b[: k*3 : k*3]
	i := i0
	for ; i+1 < i1; i += 2 {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		d0 := dst[i*3 : i*3+3 : i*3+3]
		d1 := dst[(i+1)*3 : (i+1)*3+3 : (i+1)*3+3]
		s00, s01, s02 := d0[0], d0[1], d0[2]
		s10, s11, s12 := d1[0], d1[1], d1[2]
		for kk := 0; kk < k; kk++ {
			bk := b3[kk*3 : kk*3+3 : kk*3+3]
			b0, b1, b2 := bk[0], bk[1], bk[2]
			av0, av1 := a0[kk], a1[kk]
			s00 += av0 * b0
			s01 += av0 * b1
			s02 += av0 * b2
			s10 += av1 * b0
			s11 += av1 * b1
			s12 += av1 * b2
		}
		d0[0], d0[1], d0[2] = s00, s01, s02
		d1[0], d1[1], d1[2] = s10, s11, s12
	}
	for ; i < i1; i++ {
		a0 := a[i*k : (i+1)*k]
		d0 := dst[i*3 : i*3+3 : i*3+3]
		s0, s1, s2 := d0[0], d0[1], d0[2]
		for kk := 0; kk < k; kk++ {
			bk := b3[kk*3 : kk*3+3 : kk*3+3]
			av := a0[kk]
			s0 += av * bk[0]
			s1 += av * bk[1]
			s2 += av * bk[2]
		}
		d0[0], d0[1], d0[2] = s0, s1, s2
	}
}

// MatMulATB computes dst = aᵀ·b where a is m×k and b is m×n (both
// row-major), producing the k×n dst. dst is fully overwritten. Used for
// the convolution input gradient: patchesGrad = Wᵀ·outGrad.
func MatMulATB(dst, a, b []float64, m, k, n int) {
	if len(dst) < k*n || len(a) < m*k || len(b) < m*n {
		panic("tensor: MatMulATB dimension mismatch")
	}
	clear(dst[:k*n])
	if w := gemmWorkers(k, m*k*n); w > 1 {
		// Partition the OUTPUT rows kk: no two goroutines share a dst row,
		// and each row accumulates over ascending i as in the serial call.
		parallelRows(k, w, func(lo, hi int) {
			matMulATBRows(dst, a, b, lo, hi, m, k, n)
		})
		return
	}
	if k == 3 {
		// Three output rows (the combiner-gradient shape: k = class
		// count) are hoisted out of the i loop and each streamed B row is
		// read once for all three. Per dst element the accumulation still
		// runs over ascending i, the generic kernel's order.
		c0 := dst[0:n:n]
		c1 := dst[n : 2*n : 2*n]
		c2 := dst[2*n : 3*n : 3*n]
		for i := 0; i < m; i++ {
			ai := a[i*3 : i*3+3 : i*3+3]
			av0, av1, av2 := ai[0], ai[1], ai[2]
			bi := b[i*n : (i+1)*n]
			for j, bv := range bi {
				c0[j] += av0 * bv
				c1[j] += av1 * bv
				c2[j] += av2 * bv
			}
		}
		return
	}
	matMulATBRows(dst, a, b, 0, k, m, k, n)
}

// matMulATBRows accumulates dst rows [k0, k1) of aᵀ·b. Each dst row kk
// is loaded and stored once per four a rows: the four terms a[i][kk]·b[i]
// are added in ascending i, the order of the per-term loop, which any
// group holding a zero a value falls back to.
func matMulATBRows(dst, a, b []float64, k0, k1, m, k, n int) {
	for kk := k0; kk < k1; kk++ {
		ck := dst[kk*n : (kk+1)*n]
		i := 0
		for ; i+4 <= m; i += 4 {
			a0, a1, a2, a3 := a[i*k+kk], a[(i+1)*k+kk], a[(i+2)*k+kk], a[(i+3)*k+kk]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				for t := i; t < i+4; t++ {
					axpy(ck, a[t*k+kk], b[t*n:(t+1)*n])
				}
				continue
			}
			b0 := b[i*n : (i+1)*n]
			b1 := b[(i+1)*n : (i+2)*n]
			b2 := b[(i+2)*n : (i+3)*n]
			b3 := b[(i+3)*n : (i+4)*n]
			b1, b2, b3, c := b1[:len(b0)], b2[:len(b0)], b3[:len(b0)], ck[:len(b0)]
			for j, bv := range b0 {
				v := c[j]
				v += a0 * bv
				v += a1 * b1[j]
				v += a2 * b2[j]
				v += a3 * b3[j]
				c[j] = v
			}
		}
		for ; i < m; i++ {
			axpy(ck, a[i*k+kk], b[i*n:(i+1)*n])
		}
	}
}

// MatMulABTAcc computes dst += a·bᵀ where a is m×p and b is n×p (both
// row-major), accumulating into the m×n dst. Each dst entry is the dot
// product of an a row and a b row, so both inner streams are contiguous.
// Used for the convolution weight gradient: Wgrad += outGrad·patchesᵀ.
func MatMulABTAcc(dst, a, b []float64, m, n, p int) {
	if len(dst) < m*n || len(a) < m*p || len(b) < n*p {
		panic("tensor: MatMulABTAcc dimension mismatch")
	}
	if w := gemmWorkers(m, m*n*p); w > 1 {
		parallelRows(m, w, func(lo, hi int) {
			matMulABTAccRows(dst, a, b, lo, hi, n, p)
		})
		return
	}
	matMulABTAccRows(dst, a, b, 0, m, n, p)
}

// matMulABTAccRows is the dot-product kernel restricted to dst rows
// [i0, i1); each element is one independent dot product.
func matMulABTAccRows(dst, a, b []float64, i0, i1, n, p int) {
	if n == 3 {
		matMulABTAccRows3(dst, a, b, i0, i1, p)
		return
	}
	for i := i0; i < i1; i++ {
		ai := a[i*p : (i+1)*p]
		di := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			// Four dot products share each loaded a element; each keeps
			// its own chain over ascending t, so the four independent
			// chains hide the add latency without reordering any sum.
			b0 := b[j*p : (j+1)*p]
			b1 := b[(j+1)*p : (j+2)*p]
			b2 := b[(j+2)*p : (j+3)*p]
			b3 := b[(j+3)*p : (j+4)*p]
			b0, b1, b2, b3 = b0[:len(ai)], b1[:len(ai)], b2[:len(ai)], b3[:len(ai)]
			var s0, s1, s2, s3 float64
			for t, av := range ai {
				s0 += av * b0[t]
				s1 += av * b1[t]
				s2 += av * b2[t]
				s3 += av * b3[t]
			}
			d := di[j : j+4 : j+4]
			d[0] += s0
			d[1] += s1
			d[2] += s2
			d[3] += s3
		}
		for ; j < n; j++ {
			bj := b[j*p : (j+1)*p]
			bj = bj[:len(ai)]
			s := 0.0
			for t, av := range ai {
				s += av * bj[t]
			}
			di[j] += s
		}
	}
}

// matMulABTAccRows3 is the n = 3 dot-product kernel (the batched-logit
// shape: three classes against a panel of feature rows). All three b rows
// stay hot in L1; a rows are processed in pairs so each loaded a element
// feeds three accumulators and the six independent chains hide the FP add
// latency. Each dst element is still one dot product summed over
// ascending t, so the result matches the generic loop bit for bit.
func matMulABTAccRows3(dst, a, b []float64, i0, i1, p int) {
	b0 := b[0:p:p]
	b1 := b[p : 2*p : 2*p]
	b2 := b[2*p : 3*p : 3*p]
	i := i0
	for ; i+1 < i1; i += 2 {
		a0 := a[i*p : (i+1)*p]
		a1 := a[(i+1)*p : (i+2)*p : (i+2)*p]
		var s00, s01, s02, s10, s11, s12 float64
		for t, av0 := range a0 {
			av1 := a1[t]
			w0, w1, w2 := b0[t], b1[t], b2[t]
			s00 += av0 * w0
			s01 += av0 * w1
			s02 += av0 * w2
			s10 += av1 * w0
			s11 += av1 * w1
			s12 += av1 * w2
		}
		d0 := dst[i*3 : i*3+3 : i*3+3]
		d1 := dst[(i+1)*3 : (i+1)*3+3 : (i+1)*3+3]
		d0[0] += s00
		d0[1] += s01
		d0[2] += s02
		d1[0] += s10
		d1[1] += s11
		d1[2] += s12
	}
	for ; i < i1; i++ {
		a0 := a[i*p : (i+1)*p]
		var s0, s1, s2 float64
		for t, av := range a0 {
			s0 += av * b0[t]
			s1 += av * b1[t]
			s2 += av * b2[t]
		}
		d0 := dst[i*3 : i*3+3 : i*3+3]
		d0[0] += s0
		d0[1] += s1
		d0[2] += s2
	}
}

// MatMulABTAccGather computes dst += A·bᵀ like MatMulABTAcc, except A is
// not materialized: row r of the m×p A is arena[rows[r]*p : rows[r]*p+p].
// Mini-batch SGD visits rows in shuffled order, so copying them into a
// dense panel first costs a miss-bound pass over the whole training set
// every epoch; fusing the gather lets the kernel's own streams absorb
// those misses. Per dst element the accumulation order is identical to
// MatMulABTAcc on the equivalent packed panel.
func MatMulABTAccGather(dst, arena []float64, rows []int, b []float64, n, p int) {
	m := len(rows)
	if len(dst) < m*n || len(b) < n*p {
		panic("tensor: MatMulABTAccGather dimension mismatch")
	}
	if n == 3 {
		b0 := b[0:p:p]
		b1 := b[p : 2*p : 2*p]
		b2 := b[2*p : 3*p : 3*p]
		r := 0
		for ; r+1 < m; r += 2 {
			a0 := arena[rows[r]*p : rows[r]*p+p : rows[r]*p+p]
			a1 := arena[rows[r+1]*p : rows[r+1]*p+p : rows[r+1]*p+p]
			var s00, s01, s02, s10, s11, s12 float64
			for t, av0 := range a0 {
				av1 := a1[t]
				w0, w1, w2 := b0[t], b1[t], b2[t]
				s00 += av0 * w0
				s01 += av0 * w1
				s02 += av0 * w2
				s10 += av1 * w0
				s11 += av1 * w1
				s12 += av1 * w2
			}
			d0 := dst[r*3 : r*3+3 : r*3+3]
			d1 := dst[(r+1)*3 : (r+1)*3+3 : (r+1)*3+3]
			d0[0] += s00
			d0[1] += s01
			d0[2] += s02
			d1[0] += s10
			d1[1] += s11
			d1[2] += s12
		}
		for ; r < m; r++ {
			a0 := arena[rows[r]*p : rows[r]*p+p : rows[r]*p+p]
			var s0, s1, s2 float64
			for t, av := range a0 {
				s0 += av * b0[t]
				s1 += av * b1[t]
				s2 += av * b2[t]
			}
			d0 := dst[r*3 : r*3+3 : r*3+3]
			d0[0] += s0
			d0[1] += s1
			d0[2] += s2
		}
		return
	}
	for r := 0; r < m; r++ {
		ai := arena[rows[r]*p : rows[r]*p+p]
		di := dst[r*n : (r+1)*n]
		for j := 0; j < n; j++ {
			bj := b[j*p : (j+1)*p]
			s := 0.0
			for t, av := range ai {
				s += av * bj[t]
			}
			di[j] += s
		}
	}
}

// MatMulATBGatherB computes dst = aᵀ·B like MatMulATB, except the m×n B
// is gathered: row i is arena[rows[i]*n : rows[i]*n+n]. a is m×k packed.
// Per dst element the terms accumulate over ascending i, matching
// MatMulATB on the equivalent packed panel bit for bit.
func MatMulATBGatherB(dst, a, arena []float64, rows []int, k, n int) {
	m := len(rows)
	if len(dst) < k*n || len(a) < m*k {
		panic("tensor: MatMulATBGatherB dimension mismatch")
	}
	for i := range dst[:k*n] {
		dst[i] = 0
	}
	if k == 3 {
		// Rows are folded in in pairs: each dst element is loaded and
		// stored once per pair instead of once per row, with the pair's
		// two terms added sequentially — still ascending-i order per
		// element, so the result matches the one-row-at-a-time loop bit
		// for bit.
		c0 := dst[0:n:n]
		c1 := dst[n : 2*n : 2*n]
		c2 := dst[2*n : 3*n : 3*n]
		i := 0
		for ; i+1 < m; i += 2 {
			ai := a[i*3 : i*3+6 : i*3+6]
			a00, a01, a02 := ai[0], ai[1], ai[2]
			a10, a11, a12 := ai[3], ai[4], ai[5]
			b0 := arena[rows[i]*n : rows[i]*n+n : rows[i]*n+n]
			b1 := arena[rows[i+1]*n : rows[i+1]*n+n : rows[i+1]*n+n]
			for j, bv0 := range b0 {
				bv1 := b1[j]
				v0 := c0[j]
				v0 += a00 * bv0
				v0 += a10 * bv1
				c0[j] = v0
				v1 := c1[j]
				v1 += a01 * bv0
				v1 += a11 * bv1
				c1[j] = v1
				v2 := c2[j]
				v2 += a02 * bv0
				v2 += a12 * bv1
				c2[j] = v2
			}
		}
		for ; i < m; i++ {
			ai := a[i*3 : i*3+3 : i*3+3]
			av0, av1, av2 := ai[0], ai[1], ai[2]
			bi := arena[rows[i]*n : rows[i]*n+n]
			for j, bv := range bi {
				c0[j] += av0 * bv
				c1[j] += av1 * bv
				c2[j] += av2 * bv
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		bi := arena[rows[i]*n : rows[i]*n+n]
		for kk, av := range ai {
			if av == 0 {
				continue
			}
			ck := dst[kk*n : (kk+1)*n]
			for j, bv := range bi {
				ck[j] += av * bv
			}
		}
	}
}

func checkGemm(ld, la, lb, m, k, n int) {
	if ld < m*n || la < m*k || lb < k*n {
		panic("tensor: MatMul dimension mismatch")
	}
}

// EnsureTensor returns t when it already has shape (c,h,w), otherwise a
// freshly allocated tensor of that shape. It is the scratch-buffer idiom
// used throughout internal/nn: buffers persist across calls and are only
// reallocated when the input shape changes. Contents are unspecified —
// callers either overwrite every element or Zero() explicitly.
func EnsureTensor(t *Tensor, c, h, w int) *Tensor {
	if t != nil && t.C == c && t.H == h && t.W == w {
		return t
	}
	return NewTensor(c, h, w)
}

// EnsureFloats returns buf resliced to length n, reallocating only when
// capacity is insufficient. Contents are unspecified.
func EnsureFloats(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}
