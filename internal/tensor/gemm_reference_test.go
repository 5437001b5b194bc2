package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Retained reference kernels. These are the plain per-term loops the
// register-blocked generic paths in gemm.go replaced, kept verbatim as the
// bit-exactness oracle: every dst element of the production kernels must
// equal (math.Float64bits, not within a tolerance) the element these loops
// compute, because the trained CommCNN, its EdgeStore and its macro-F1 all
// sit downstream of them.

// refMatMulAccRows is matMulAccRows' generic (n > 4) path: dst rows
// [i0, i1) += a·b, terms added in ascending kk, zero a values skipped.
func refMatMulAccRows(dst, a, b []float64, i0, i1, k, n int) {
	for k0 := 0; k0 < k; k0 += gemmBlockK {
		k1 := min(k0+gemmBlockK, k)
		for j0 := 0; j0 < n; j0 += gemmBlockJ {
			j1 := min(j0+gemmBlockJ, n)
			for i := i0; i < i1; i++ {
				ci := dst[i*n+j0 : i*n+j1]
				ai := a[i*k : (i+1)*k]
				for kk := k0; kk < k1; kk++ {
					av := ai[kk]
					if av == 0 {
						continue
					}
					bk := b[kk*n+j0 : kk*n+j1]
					for j, bv := range bk {
						ci[j] += av * bv
					}
				}
			}
		}
	}
}

// refMatMulATB is MatMulATB's generic serial path: dst = aᵀ·b, terms
// added in ascending i, zero a values skipped.
func refMatMulATB(dst, a, b []float64, m, k, n int) {
	for i := range dst[:k*n] {
		dst[i] = 0
	}
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		bi := b[i*n : (i+1)*n]
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

// refMatMulABTAccRows is matMulABTAccRows' generic (n ≠ 3) path: one dot
// product per dst element, summed over ascending t, then added to dst.
func refMatMulABTAccRows(dst, a, b []float64, i0, i1, n, p int) {
	for i := i0; i < i1; i++ {
		ai := a[i*p : (i+1)*p]
		di := dst[i*n : (i+1)*n]
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

// commCNNShapes are the (m, k, n) triples CommCNN's convolutions hand the
// three kernels — m = filters, k = InC·KH·KW, n = OH·OW — at K=16/F=13
// (`locec train`) and K=20/F=13 (the pipeline default). For
// MatMulABTAcc the triple reads (m, n, p).
var commCNNShapes = [][3]int{
	// K=16, F=13
	{8, 9, 208}, {8, 72, 208}, {8, 72, 56}, {8, 13, 16}, {8, 16, 13}, {8, 8, 16}, {8, 8, 13},
	// K=20, F=13
	{8, 9, 260}, {8, 72, 260}, {8, 72, 70}, {8, 13, 20}, {8, 20, 13}, {8, 8, 20},
}

// raggedShapes leave tails in every unrolled dimension (m, k, n not
// multiples of 4) and cross the gemmBlockK/gemmBlockJ block edges.
var raggedShapes = [][3]int{
	{1, 1, 5}, {1, 3, 7}, {3, 5, 6}, {5, 7, 9}, {6, 11, 13}, {7, 130, 515}, {9, 6, 1},
}

// bigShape exceeds gemmParallelFlops, so the public entry points fan out
// whenever GOMAXPROCS > 1.
var bigShape = [3]int{66, 130, 150}

// randWithZeros fills a slice like randSlice but sets roughly one value
// in `every` to exactly zero, alternating signs, so the kernels' zero-skip
// fallback runs inside a 4-wide group as well as in the tails.
func randWithZeros(n, every int, rng *rand.Rand) []float64 {
	out := randSlice(n, rng)
	if every <= 0 {
		return out
	}
	for i := range out {
		if rng.Intn(every) == 0 {
			out[i] = 0
			if rng.Intn(2) == 0 {
				out[i] = math.Copysign(0, -1)
			}
		}
	}
	return out
}

func assertBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestGemmKernelsMatchReferenceBits pins the register-blocked generic
// kernels Float64bits-identical to the retained per-term loops on every
// CommCNN shape, on ragged tails, on a-operands containing ±0, and on one
// shape large enough to take the parallel path.
func TestGemmKernelsMatchReferenceBits(t *testing.T) {
	shapes := append(append(append([][3]int(nil), commCNNShapes...), raggedShapes...), bigShape)
	rng := rand.New(rand.NewSource(11))
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		for _, sh := range shapes {
			for _, zeros := range []int{0, 3} {
				m, k, n := sh[0], sh[1], sh[2]
				name := fmt.Sprintf("procs=%d/%dx%dx%d/zeros=%d", procs, m, k, n, zeros)

				// dst += a·b, on a non-zero starting dst. n ≤ 4 takes the
				// skinny register path, which this change does not touch.
				if n > 4 {
					a, b := randWithZeros(m*k, zeros, rng), randSlice(k*n, rng)
					init := randSlice(m*n, rng)
					got := append([]float64(nil), init...)
					want := append([]float64(nil), init...)
					MatMulAcc(got, a, b, m, k, n)
					refMatMulAccRows(want, a, b, 0, m, k, n)
					assertBits(t, name+"/MatMulAcc", got, want)
				}

				// dst = aᵀ·b over garbage dst.
				a, b := randWithZeros(m*k, zeros, rng), randSlice(m*n, rng)
				got, want := randSlice(k*n, rng), randSlice(k*n, rng)
				MatMulATB(got, a, b, m, k, n)
				refMatMulATB(want, a, b, m, k, n)
				assertBits(t, name+"/MatMulATB", got, want)

				// dst += a·bᵀ with (m, n, p) = (m, k, n).
				a, b = randWithZeros(m*n, zeros, rng), randWithZeros(k*n, zeros, rng)
				init := randSlice(m*k, rng)
				got = append([]float64(nil), init...)
				want = append([]float64(nil), init...)
				MatMulABTAcc(got, a, b, m, k, n)
				refMatMulABTAccRows(want, a, b, 0, m, k, n)
				assertBits(t, name+"/MatMulABTAcc", got, want)
			}
		}
	}
}

// TestGemmZeroSkipMatchesReference pins the two cases where skipping a
// zero a value and adding 0·b differ: a -0 dst element stays -0, and a
// zero weight never meets an Inf in b (0·Inf would be NaN). Row 0 of a is
// all zeros; every other row has one zero in each 4-wide group among
// non-zero weights, so the grouped path must fall back.
func TestGemmZeroSkipMatchesReference(t *testing.T) {
	const m, k, n = 4, 8, 6
	a := make([]float64, m*k)
	for i := 1; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			if kk%4 != i {
				a[i*k+kk] = float64(kk+1) / 4
			}
		}
	}
	filled := func(l int) []float64 {
		out := make([]float64, l)
		for i := range out {
			out[i] = 0.5
		}
		out[n+1] = math.Inf(1) // b row 1 meets a zero weight in rows 0 and 1
		return out
	}
	negZeros := func(l int) []float64 {
		out := make([]float64, l)
		for i := range out {
			out[i] = math.Copysign(0, -1)
		}
		return out
	}

	b := filled(k * n)
	got, want := negZeros(m*n), negZeros(m*n)
	MatMulAcc(got, a, b, m, k, n)
	refMatMulAccRows(want, a, b, 0, m, k, n)
	assertBits(t, "MatMulAcc", got, want)

	b = filled(m * n)
	got, want = make([]float64, k*n), make([]float64, k*n)
	MatMulATB(got, a, b, m, k, n)
	refMatMulATB(want, a, b, m, k, n)
	assertBits(t, "MatMulATB", got, want)
}

// The benchmarks below are the kernels' permanent receipts: each
// production kernel at CommCNN's largest conv shape (8×72×208, the second
// square conv at K=16) next to its retained reference twin.

const benchM, benchK, benchN = 8, 72, 208

func benchOperands(la, lb, ld int) (a, b, dst []float64) {
	rng := rand.New(rand.NewSource(1))
	return randSlice(la, rng), randSlice(lb, rng), make([]float64, ld)
}

func reportFlops(b *testing.B) {
	b.ReportMetric(float64(2*benchM*benchK*benchN)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkMatMul(b *testing.B) {
	a, bb, dst := benchOperands(benchM*benchK, benchK*benchN, benchM*benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, bb, benchM, benchK, benchN)
	}
	reportFlops(b)
}

func BenchmarkMatMulReference(b *testing.B) {
	a, bb, dst := benchOperands(benchM*benchK, benchK*benchN, benchM*benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = 0
		}
		refMatMulAccRows(dst, a, bb, 0, benchM, benchK, benchN)
	}
	reportFlops(b)
}

func BenchmarkMatMulATB(b *testing.B) {
	a, bb, dst := benchOperands(benchM*benchK, benchM*benchN, benchK*benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulATB(dst, a, bb, benchM, benchK, benchN)
	}
	reportFlops(b)
}

func BenchmarkMatMulATBReference(b *testing.B) {
	a, bb, dst := benchOperands(benchM*benchK, benchM*benchN, benchK*benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refMatMulATB(dst, a, bb, benchM, benchK, benchN)
	}
	reportFlops(b)
}

func BenchmarkMatMulABTAcc(b *testing.B) {
	a, bb, dst := benchOperands(benchM*benchN, benchK*benchN, benchM*benchK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulABTAcc(dst, a, bb, benchM, benchK, benchN)
	}
	reportFlops(b)
}

func BenchmarkMatMulABTAccReference(b *testing.B) {
	a, bb, dst := benchOperands(benchM*benchN, benchK*benchN, benchM*benchK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refMatMulABTAccRows(dst, a, bb, 0, benchM, benchK, benchN)
	}
	reportFlops(b)
}
