package mat

import "fmt"

// Batched GEMM kernels.
//
// The network's execution path re-expresses a minibatch of B samples as
// per-timestep matrix-matrix products: instead of B separate
// matrix-vector products against the same weight matrix it computes one
// B-row GEMM, so every weight element loaded from memory is reused across
// the whole batch while it is still in register or L1. Three orientations cover everything BPTT needs:
//
//	MulTAdd  dst += a · bᵀ   activations:   X[B×in] · W[out×in]ᵀ → [B×out]
//	MulAdd   dst += a · b    input grads:   dZ[B×out] · W[out×in] → [B×in]
//	MulATAdd dst += aᵀ · b   weight grads:  dZ[B×out]ᵀ · X[B×in] → [out×in]
//
// The scalar kernels are register-blocked: MulTAdd computes a 4×2 block
// of dot products per pass (four a-rows against two b-rows, 2-wide
// unrolled over the shared depth), and MulAdd/MulATAdd accumulate two
// destination rows from four source rows per sweep (axpy2x4). The
// b-panel loops are blocked so the streamed panel stays L1-resident
// across the destination rows. On the AVX2+FMA path each row block is
// one assembly call: a dot panel (dotPanel) computes a 4-row block of
// a·bᵀ across its whole column panel, and a register tile (gradTile)
// holds a 4×8, 4×4 or 4×1 block of dst (2 rows for a leftover pair) in
// registers across every source row of MulATAdd, or of a mulAddPanel
// depth panel, so dst is read and written once instead of once per four
// source rows. Neither changes any output element's operations: the same
// FMA chain in the same order, the same dot lane layout and reduction,
// and the same unfused Go remainders (axpy2x2, outerPair, AddOuter, the
// odd row's axpyPair) at the same panel positions — so results are the
// bits the per-block kernels produced. The blocked accumulation order
// differs from a naive triple loop only in floating-point association;
// every run of the same binary remains bit-for-bit deterministic.
//
// Row invariance: in MulTAdd and MulTBias every dot a_i · b_j is
// associated the same way whichever kernel computes it (dot4x2, dot4x1
// and dot1x1 share one association; the dot panel, fmaDot4x1 and
// fmaDot1x1 share one lane layout). Row i of the result therefore
// depends on row i of a alone, never on how many rows a has or where
// row i sits among them — which is what makes a window's score
// independent of the wave it is scored in.
//
// Aliasing rules: dst must not alias a or b in any kernel. Shape
// mismatches panic, mirroring the matvec kernels.

// gemmPanelBytes bounds the streamed source panel per blocking step so it
// stays resident in a typical 32 KiB L1d while the destination rows sweep
// over it.
const gemmPanelBytes = 24 * 1024

// dot4x2 computes the eight dot products between four a-rows and two
// b-rows sharing depth n: sij = ai · bj. The 4-wide unrolled depth loop
// keeps eight independent accumulator chains live, which is what lets a
// superscalar core overlap the loads of six streams with the multiplies.
func dot4x2(a0, a1, a2, a3, b0, b1 []float64) (s00, s01, s10, s11, s20, s21, s30, s31 float64) {
	n := len(b0)
	a0 = a0[:n] // bounds-check elimination hints
	a1 = a1[:n]
	a2 = a2[:n]
	a3 = a3[:n]
	b1 = b1[:n]
	k := 0
	for ; k+1 < n; k += 2 {
		x0, x1 := b0[k], b0[k+1]
		y0, y1 := b1[k], b1[k+1]
		s00 += a0[k]*x0 + a0[k+1]*x1
		s01 += a0[k]*y0 + a0[k+1]*y1
		s10 += a1[k]*x0 + a1[k+1]*x1
		s11 += a1[k]*y0 + a1[k+1]*y1
		s20 += a2[k]*x0 + a2[k+1]*x1
		s21 += a2[k]*y0 + a2[k+1]*y1
		s30 += a3[k]*x0 + a3[k+1]*x1
		s31 += a3[k]*y0 + a3[k+1]*y1
	}
	if k < n {
		x0, y0 := b0[k], b1[k]
		s00 += a0[k] * x0
		s01 += a0[k] * y0
		s10 += a1[k] * x0
		s11 += a1[k] * y0
		s20 += a2[k] * x0
		s21 += a2[k] * y0
		s30 += a3[k] * x0
		s31 += a3[k] * y0
	}
	return
}

// dot4x1 computes four row dot products against a shared x in one sweep,
// each with exactly dot4x2's per-dot association, so a dot comes out the
// same bits whichever kernel computes it. It is the scalar kernel behind
// dotQuad: every matvec and the rows a 4×2 block leaves over.
func dot4x1(r0, r1, r2, r3, x []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	r0 = r0[:n] // bounds-check elimination hints
	r1 = r1[:n]
	r2 = r2[:n]
	r3 = r3[:n]
	k := 0
	for ; k+1 < n; k += 2 {
		x0, x1 := x[k], x[k+1]
		s0 += r0[k]*x0 + r0[k+1]*x1
		s1 += r1[k]*x0 + r1[k+1]*x1
		s2 += r2[k]*x0 + r2[k+1]*x1
		s3 += r3[k]*x0 + r3[k+1]*x1
	}
	if k < n {
		x0 := x[k]
		s0 += r0[k] * x0
		s1 += r1[k] * x0
		s2 += r2[k] * x0
		s3 += r3[k] * x0
	}
	return
}

// dot1x1 is the one-dot form of dot4x2, for the single dots a GEMM panel
// leaves over after its 4×2 and 4×1 blocks.
func dot1x1(a, x []float64) (s float64) {
	n := len(x)
	a = a[:n] // bounds-check elimination hint
	k := 0
	for ; k+1 < n; k += 2 {
		s += a[k]*x[k] + a[k+1]*x[k+1]
	}
	if k < n {
		s += a[k] * x[k]
	}
	return
}

// axpy2x4 accumulates two destination rows from four shared source rows:
// d0 += c00·s0 + c01·s1 + c02·s2 + c03·s3 and likewise d1 with the c1x
// coefficients. Each pass streams the four source rows once for two
// destination rows, halving destination traffic versus row-at-a-time axpy
// and quartering it versus a rank-1 update per source row.
func axpy2x4(c00, c01, c02, c03, c10, c11, c12, c13 float64, d0, d1, s0, s1, s2, s3 []float64) {
	n := len(d0)
	d1 = d1[:n] // bounds-check elimination hints
	s0 = s0[:n]
	s1 = s1[:n]
	s2 = s2[:n]
	s3 = s3[:n]
	for j := 0; j < n; j++ {
		v0, v1, v2, v3 := s0[j], s1[j], s2[j], s3[j]
		d0[j] += c00*v0 + c01*v1 + c02*v2 + c03*v3
		d1[j] += c10*v0 + c11*v1 + c12*v2 + c13*v3
	}
}

// axpy2x2 is the 2×2 edge form of axpy2x4.
func axpy2x2(c00, c01, c10, c11 float64, d0, d1, s0, s1 []float64) {
	n := len(d0)
	d1 = d1[:n] // bounds-check elimination hints
	s0 = s0[:n]
	s1 = s1[:n]
	for j := 0; j < n; j++ {
		v0, v1 := s0[j], s1[j]
		d0[j] += c00*v0 + c01*v1
		d1[j] += c10*v0 + c11*v1
	}
}

// MulTAdd accumulates dst += a · bᵀ where dst is M×N, a is M×K and b is
// N×K — the batched activation product dst[i][j] += a_i · b_j over rows of
// two row-major operands. dst must not alias a or b.
func (dst *Matrix) MulTAdd(a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTAdd shape mismatch: %dx%d += %dx%d · (%dx%d)ᵀ",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	k := a.Cols
	if k == 0 {
		return
	}
	if k == 1 {
		// Depth-1 product is a rank-1 update: dst += a(:,0) ⊗ b(:,0).
		// The univariate input layers hit this every timestep; the blocked
		// dot kernels would be pure overhead.
		for i := 0; i < a.Rows; i++ {
			axpyUnroll(a.Data[i], dst.Row(i), b.Data)
		}
		return
	}
	// Panel-block over b rows so each panel is swept from L1 by every
	// block of a rows.
	nb := gemmPanelBytes / (8 * k)
	if nb < 4 {
		nb = 4
	}
	for j0 := 0; j0 < b.Rows; j0 += nb {
		j1 := j0 + nb
		if j1 > b.Rows {
			j1 = b.Rows
		}
		dst.mulTAddPanel(a, b, j0, j1)
	}
}

// mulTAddPanel accumulates the dst columns [j0, j1) of dst += a·bᵀ.
func (dst *Matrix) mulTAddPanel(a, b *Matrix, j0, j1 int) {
	k := a.Cols
	i := 0
	for ; i+3 < a.Rows; i += 4 {
		a0 := a.Data[i*k : i*k+k]
		a1 := a.Data[(i+1)*k : (i+1)*k+k]
		a2 := a.Data[(i+2)*k : (i+2)*k+k]
		a3 := a.Data[(i+3)*k : (i+3)*k+k]
		d0 := dst.Row(i)
		d1 := dst.Row(i + 1)
		d2 := dst.Row(i + 2)
		d3 := dst.Row(i + 3)
		dij := dst.Data[i*dst.Cols+j0:]
		j := j0 + dotPanel(a.Data[i*k:], b.Data[j0*k:], k, j1-j0, dij, dst.Cols, dij, dst.Cols)
		for ; j+1 < j1; j += 2 {
			s00, s01, s10, s11, s20, s21, s30, s31 := dot4x2(a0, a1, a2, a3,
				b.Data[j*k:j*k+k], b.Data[(j+1)*k:(j+1)*k+k])
			d0[j] += s00
			d0[j+1] += s01
			d1[j] += s10
			d1[j+1] += s11
			d2[j] += s20
			d2[j+1] += s21
			d3[j] += s30
			d3[j+1] += s31
		}
		if j < j1 {
			bj := b.Data[j*k : j*k+k]
			s0, s1, s2, s3 := dotQuad(a0, a1, a2, a3, bj)
			d0[j] += s0
			d1[j] += s1
			d2[j] += s2
			d3[j] += s3
		}
	}
	// Remaining a rows (at most 3): row-at-a-time against the b panel,
	// four b rows per pass via the matvec quad kernel.
	for ; i < a.Rows; i++ {
		ai := a.Data[i*k : i*k+k]
		di := dst.Row(i)
		j := j0
		for ; j+3 < j1; j += 4 {
			s0, s1, s2, s3 := dotQuad(
				b.Data[j*k:j*k+k], b.Data[(j+1)*k:(j+1)*k+k],
				b.Data[(j+2)*k:(j+2)*k+k], b.Data[(j+3)*k:(j+3)*k+k], ai)
			di[j] += s0
			di[j+1] += s1
			di[j+2] += s2
			di[j+3] += s3
		}
		for ; j < j1; j++ {
			di[j] += dotOne(b.Data[j*k:j*k+k], ai)
		}
	}
}

// MulT computes dst = a · bᵀ (see MulTAdd), overwriting dst.
func (dst *Matrix) MulT(a, b *Matrix) {
	dst.Zero()
	dst.MulTAdd(a, b)
}

// MulTBias computes dst = 1·biasᵀ + a · bᵀ: every row of dst starts from
// bias (length dst.Cols) before the GEMM accumulates into it: the
// pre-activation step of every layer.
// The bias is folded into the write of each dot block, so dst is streamed
// once instead of a copy pass plus a read-modify-write pass.
func (dst *Matrix) MulTBias(a, b *Matrix, bias []float64) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTBias shape mismatch: %dx%d = %dx%d · (%dx%d)ᵀ",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if len(bias) != dst.Cols {
		panic(fmt.Sprintf("mat: MulTBias bias length %d for %d columns", len(bias), dst.Cols))
	}
	k := a.Cols
	if k == 0 {
		// Zero shared depth: the product contributes nothing, every row
		// is just the bias (mirrors MulTAdd's empty-depth guard).
		for i := 0; i < dst.Rows; i++ {
			copy(dst.Row(i), bias)
		}
		return
	}
	if k == 1 {
		if biasOuter(dst.Data, a.Data, b.Data, bias) {
			return
		}
		for i := 0; i < a.Rows; i++ {
			ai := a.Data[i]
			di := dst.Row(i)
			for j, bj := range b.Data {
				di[j] = bias[j] + ai*bj
			}
		}
		return
	}
	nb := gemmPanelBytes / (8 * k)
	if nb < 4 {
		nb = 4
	}
	for j0 := 0; j0 < b.Rows; j0 += nb {
		j1 := j0 + nb
		if j1 > b.Rows {
			j1 = b.Rows
		}
		dst.mulTBiasPanel(a, b, bias, j0, j1)
	}
}

// mulTBiasPanel writes the dst columns [j0, j1) of dst = biasᵀ + a·bᵀ.
func (dst *Matrix) mulTBiasPanel(a, b *Matrix, bias []float64, j0, j1 int) {
	k := a.Cols
	i := 0
	for ; i+3 < a.Rows; i += 4 {
		a0 := a.Data[i*k : i*k+k]
		a1 := a.Data[(i+1)*k : (i+1)*k+k]
		a2 := a.Data[(i+2)*k : (i+2)*k+k]
		a3 := a.Data[(i+3)*k : (i+3)*k+k]
		d0 := dst.Row(i)
		d1 := dst.Row(i + 1)
		d2 := dst.Row(i + 2)
		d3 := dst.Row(i + 3)
		j := j0 + dotPanel(a.Data[i*k:], b.Data[j0*k:], k, j1-j0, dst.Data[i*dst.Cols+j0:], dst.Cols, bias[j0:], 0)
		for ; j+1 < j1; j += 2 {
			s00, s01, s10, s11, s20, s21, s30, s31 := dot4x2(a0, a1, a2, a3,
				b.Data[j*k:j*k+k], b.Data[(j+1)*k:(j+1)*k+k])
			d0[j] = bias[j] + s00
			d0[j+1] = bias[j+1] + s01
			d1[j] = bias[j] + s10
			d1[j+1] = bias[j+1] + s11
			d2[j] = bias[j] + s20
			d2[j+1] = bias[j+1] + s21
			d3[j] = bias[j] + s30
			d3[j+1] = bias[j+1] + s31
		}
		if j < j1 {
			bj := b.Data[j*k : j*k+k]
			s0, s1, s2, s3 := dotQuad(a0, a1, a2, a3, bj)
			d0[j] = bias[j] + s0
			d1[j] = bias[j] + s1
			d2[j] = bias[j] + s2
			d3[j] = bias[j] + s3
		}
	}
	for ; i < a.Rows; i++ {
		ai := a.Data[i*k : i*k+k]
		di := dst.Row(i)
		j := j0
		for ; j+3 < j1; j += 4 {
			s0, s1, s2, s3 := dotQuad(
				b.Data[j*k:j*k+k], b.Data[(j+1)*k:(j+1)*k+k],
				b.Data[(j+2)*k:(j+2)*k+k], b.Data[(j+3)*k:(j+3)*k+k], ai)
			di[j] = bias[j] + s0
			di[j+1] = bias[j+1] + s1
			di[j+2] = bias[j+2] + s2
			di[j+3] = bias[j+3] + s3
		}
		for ; j < j1; j++ {
			di[j] = bias[j] + dotOne(b.Data[j*k:j*k+k], ai)
		}
	}
}

// MulAdd accumulates dst += a · b where dst is M×N, a is M×K and b is
// K×N — the batched input-gradient product. dst must not alias a or b.
func (dst *Matrix) MulAdd(a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulAdd shape mismatch: %dx%d += %dx%d · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Cols == 0 || a.Cols == 0 {
		return
	}
	if dst.Cols == 1 {
		// One destination column: dst(:,0) += a · b(:,0), a plain matvec
		// (the input-gradient product of univariate layers).
		a.MulVecAdd(dst.Data, b.Data)
		return
	}
	// Depth-block so the streamed b panel (kb rows of length N) stays
	// L1-resident across all destination rows.
	kb := 4
	if b.Cols > 0 {
		kb = gemmPanelBytes / (8 * b.Cols)
	}
	if kb < 4 {
		kb = 4
	}
	for k0 := 0; k0 < b.Rows; k0 += kb {
		k1 := k0 + kb
		if k1 > b.Rows {
			k1 = b.Rows
		}
		dst.mulAddPanel(a, b, k0, k1)
	}
}

// mulAddPanel accumulates dst += a[:, k0:k1] · b[k0:k1, :]. The register
// tiles take the panel's 4-row source groups for every row pair; the 2-
// and 1-row remainders and the odd destination row stay in Go.
func (dst *Matrix) mulAddPanel(a, b *Matrix, k0, k1 int) {
	n4 := (k1 - k0) &^ 3
	tiled := gradTile(dst.Data, dst.Rows, dst.Cols, a.Data[k0:], a.Cols, 1, b.Data[k0*b.Cols:], n4)
	i := 0
	for ; i+1 < dst.Rows; i += 2 {
		r0 := a.Row(i)
		r1 := a.Row(i + 1)
		d0 := dst.Row(i)
		d1 := dst.Row(i + 1)
		k := k0
		if i < tiled {
			k += n4
		}
		for ; k+3 < k1; k += 4 {
			axpy2x4(r0[k], r0[k+1], r0[k+2], r0[k+3], r1[k], r1[k+1], r1[k+2], r1[k+3],
				d0, d1, b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3))
		}
		for ; k+1 < k1; k += 2 {
			axpy2x2(r0[k], r0[k+1], r1[k], r1[k+1], d0, d1, b.Row(k), b.Row(k+1))
		}
		if k < k1 {
			outerPair(r0[k], d0, r1[k], d1, b.Row(k))
		}
	}
	if i < dst.Rows {
		ri := a.Row(i)
		di := dst.Row(i)
		k := k0
		for ; k+1 < k1; k += 2 {
			axpyPair(ri[k], b.Row(k), ri[k+1], b.Row(k+1), di)
		}
		if k < k1 {
			axpyUnroll(ri[k], di, b.Row(k))
		}
	}
}

// Mul computes dst = a · b (see MulAdd), overwriting dst.
func (dst *Matrix) Mul(a, b *Matrix) {
	dst.Zero()
	dst.MulAdd(a, b)
}

// MulATAdd accumulates dst += aᵀ · b where dst is M×N, a is K×M and b is
// K×N — the batched weight-gradient product (dZᵀ·X summed over the batch
// rows K). Equivalent to K rank-1 updates: on the vector path the
// register tiles hold each block of dst in registers across the first
// K &^ 3 rows, so dst is read and written once per call; the scalar path
// streams it once per four rows. dst must not alias a or b.
func (dst *Matrix) MulATAdd(a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulATAdd shape mismatch: %dx%d += (%dx%d)ᵀ · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Cols == 0 || a.Rows == 0 {
		return
	}
	if dst.Cols == 1 {
		// One destination column: dst(:,0) += aᵀ · b(:,0), the transposed
		// matvec (the weight-gradient product of univariate layers).
		a.MulVecTAdd(dst.Data, b.Data)
		return
	}
	k4 := a.Rows &^ 3
	tiled := gradTile(dst.Data, dst.Rows, dst.Cols, a.Data, 1, a.Cols, b.Data, k4)
	k := 0
	for ; k < k4; k += 4 {
		a0, a1, a2, a3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
		i := tiled
		for ; i+1 < dst.Rows; i += 2 {
			axpy2x4(a0[i], a1[i], a2[i], a3[i], a0[i+1], a1[i+1], a2[i+1], a3[i+1],
				dst.Row(i), dst.Row(i+1), b0, b1, b2, b3)
		}
		if i < dst.Rows {
			di := dst.Row(i)
			axpyPair(a0[i], b0, a1[i], b1, di)
			axpyPair(a2[i], b2, a3[i], b3, di)
		}
	}
	for ; k < a.Rows; k++ {
		dst.AddOuter(a.Row(k), b.Row(k))
	}
}

// ColSumsAdd accumulates the column sums of m into dst (length m.Cols) —
// the batched bias-gradient reduction.
func (m *Matrix) ColSumsAdd(dst []float64) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: ColSumsAdd length %d for %d columns", len(dst), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		AddVec(dst, m.Row(i))
	}
}

// GateActivationsRows applies the LSTM gate nonlinearities to every row of
// the B×4u pre-activation panel z (gate order i, f, g, o: logistic σ on
// the i‖f and o blocks, tanh on g), through the vectorized panel
// activations where available.
func (z *Matrix) GateActivationsRows(u int) {
	if z.Cols != 4*u {
		panic(fmt.Sprintf("mat: GateActivationsRows width %d for %d units", z.Cols, u))
	}
	for i := 0; i < z.Rows; i++ {
		row := z.Row(i)
		SigmoidPanel(row[:2*u])
		TanhPanel(row[2*u : 3*u])
		SigmoidPanel(row[3*u:])
	}
}
