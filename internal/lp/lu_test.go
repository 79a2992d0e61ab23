package lp

import (
	"math"
	"math/rand"
	"testing"
)

// denseSolve solves A·x = b by Gauss elimination with partial pivoting —
// the reference for the LU triangular solves. A is row-major m×m.
func denseSolve(a []float64, b []float64, m int) []float64 {
	mat := append([]float64(nil), a...)
	x := append([]float64(nil), b...)
	piv := make([]int, m)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < m; k++ {
		best, bv := -1, 0.0
		for i := k; i < m; i++ {
			if v := math.Abs(mat[piv[i]*m+k]); v > bv {
				best, bv = i, v
			}
		}
		if best < 0 || bv < 1e-12 {
			return nil
		}
		piv[k], piv[best] = piv[best], piv[k]
		pr := piv[k]
		for i := k + 1; i < m; i++ {
			r := piv[i]
			f := mat[r*m+k] / mat[pr*m+k]
			if f == 0 {
				continue
			}
			for j := k; j < m; j++ {
				mat[r*m+j] -= f * mat[pr*m+j]
			}
			x[r] -= f * x[pr]
		}
	}
	out := make([]float64, m)
	for k := m - 1; k >= 0; k-- {
		r := piv[k]
		v := x[r]
		for j := k + 1; j < m; j++ {
			v -= mat[r*m+j] * out[j]
		}
		out[k] = v / mat[r*m+k]
	}
	return out
}

// randomSparseMatrix builds a random m×m matrix, ~density nonzeros per
// column plus a guaranteed diagonal (so it is almost surely nonsingular),
// returned both dense (row-major) and as a column-gather callback of the
// shape factor() takes.
func randomSparseMatrix(rng *rand.Rand, m int, density float64) ([]float64, func(int) ([]int32, []float64)) {
	dense := make([]float64, m*m)
	cols := make([][]int32, m)
	vals := make([][]float64, m)
	for c := 0; c < m; c++ {
		for r := 0; r < m; r++ {
			if r == c || rng.Float64() < density {
				v := float64(rng.Intn(19)-9) / 2
				if r == c && v == 0 {
					v = 1 + rng.Float64()
				}
				if v == 0 {
					continue
				}
				dense[r*m+c] += v
				cols[c] = append(cols[c], int32(r))
				vals[c] = append(vals[c], v)
			}
		}
	}
	return dense, func(pos int) ([]int32, []float64) { return cols[pos], vals[pos] }
}

// TestLUFactorSolveMatchesDense: factor random sparse matrices and check
// ftran (solve A·x=b) and btran (solve Aᵀ·y=c) against dense Gauss
// elimination.
func TestLUFactorSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(30)
		dense, col := randomSparseMatrix(rng, m, 0.15)
		f := newLUFactor(m)
		if !f.factor(col) {
			continue // random exact singularity: rare and legitimate
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = float64(rng.Intn(11) - 5)
		}
		ref := denseSolve(dense, b, m)
		if ref == nil {
			continue
		}
		x := make([]float64, m)
		f.ftran(append([]float64(nil), b...), x)
		for i := range x {
			if math.Abs(x[i]-ref[i]) > 1e-7*(1+math.Abs(ref[i])) {
				t.Fatalf("trial %d m=%d: ftran x[%d]=%g want %g", trial, m, i, x[i], ref[i])
			}
		}
		// Aᵀ solve: reference is dense solve of the transpose.
		denseT := make([]float64, m*m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				denseT[j*m+i] = dense[i*m+j]
			}
		}
		refT := denseSolve(denseT, b, m)
		if refT == nil {
			continue
		}
		y := make([]float64, m)
		f.btran(append([]float64(nil), b...), y)
		for i := range y {
			if math.Abs(y[i]-refT[i]) > 1e-7*(1+math.Abs(refT[i])) {
				t.Fatalf("trial %d m=%d: btran y[%d]=%g want %g", trial, m, i, y[i], refT[i])
			}
		}
	}
}

// TestLUSingularDetected: a structurally singular basis (a zero column,
// or two identical columns) must be reported, not divided by.
func TestLUSingularDetected(t *testing.T) {
	// Zero column.
	f := newLUFactor(3)
	colsA := [][]int32{{0, 1}, {}, {1, 2}}
	valsA := [][]float64{{1, 2}, {}, {3, 4}}
	if f.factor(func(p int) ([]int32, []float64) { return colsA[p], valsA[p] }) {
		t.Fatal("factor accepted a zero column")
	}
	// Duplicate columns.
	f = newLUFactor(3)
	colsB := [][]int32{{0, 1}, {0, 1}, {2}}
	valsB := [][]float64{{1, 2}, {1, 2}, {1}}
	if f.factor(func(p int) ([]int32, []float64) { return colsB[p], valsB[p] }) {
		t.Fatal("factor accepted duplicate columns")
	}
}

// TestLUDuplicateRowEntriesAccumulate: a column callback may report the
// same row more than once (the CSC gather in sparse.go can); entries must
// sum, matching the dense refactorization this replaced.
func TestLUDuplicateRowEntriesAccumulate(t *testing.T) {
	// Column 0 reports row 0 twice: 2 + 3 = 5. Matrix [[5,0],[0,1]].
	cols := [][]int32{{0, 0}, {1}}
	vals := [][]float64{{2, 3}, {1}}
	f := newLUFactor(2)
	if !f.factor(func(p int) ([]int32, []float64) { return cols[p], vals[p] }) {
		t.Fatal("factor failed")
	}
	x := make([]float64, 2)
	f.ftran([]float64{10, 7}, x)
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-7) > 1e-12 {
		t.Fatalf("x=%v want [2 7]", x)
	}
	// An exact cancellation (2 + (−2)) is a zero column: singular.
	vals[0] = []float64{2, -2}
	f = newLUFactor(2)
	if f.factor(func(p int) ([]int32, []float64) { return cols[p], vals[p] }) {
		t.Fatal("factor accepted a column cancelled to zero")
	}
}

// TestLUEtaUpdateMatchesRefactor: replacing basis columns via the
// product-form eta file must solve the same systems as factoring the
// updated matrix from scratch.
func TestLUEtaUpdateMatchesRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		m := 2 + rng.Intn(20)
		_, col := randomSparseMatrix(rng, m, 0.2)
		f := newLUFactor(m)
		if !f.factor(col) {
			continue
		}
		// Current columns, for the from-scratch cross-check.
		cur := make([][]float64, m) // dense columns
		for c := 0; c < m; c++ {
			d := make([]float64, m)
			ind, val := col(c)
			for k, r := range ind {
				d[r] += val[k]
			}
			cur[c] = d
		}
		// Apply a few eta updates: replace position `leave` with a fresh
		// random column whose FTRAN image has an acceptable pivot.
		for upd := 0; upd < 4; upd++ {
			newCol := make([]float64, m)
			for i := range newCol {
				if rng.Float64() < 0.4 {
					newCol[i] = float64(rng.Intn(9) - 4)
				}
			}
			leave := rng.Intn(m)
			w := make([]float64, m)
			f.ftran(append([]float64(nil), newCol...), w)
			if math.Abs(w[leave]) < 1e-6 {
				continue // unacceptable pivot; the solver would reject it too
			}
			f.appendEta(leave, w)
			cur[leave] = newCol
		}
		if f.nEtas() == 0 {
			continue
		}
		// Cross-check against a from-scratch factorization of the updated
		// matrix.
		g := newLUFactor(m)
		ok := g.factor(func(pos int) ([]int32, []float64) {
			var ind []int32
			var val []float64
			for r, v := range cur[pos] {
				if v != 0 {
					ind = append(ind, int32(r))
					val = append(val, v)
				}
			}
			return ind, val
		})
		if !ok {
			continue
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = float64(rng.Intn(7) - 3)
		}
		x1 := make([]float64, m)
		x2 := make([]float64, m)
		f.ftran(append([]float64(nil), b...), x1)
		g.ftran(append([]float64(nil), b...), x2)
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-6*(1+math.Abs(x2[i])) {
				t.Fatalf("trial %d m=%d etas=%d: eta ftran x[%d]=%g scratch=%g", trial, m, f.nEtas(), i, x1[i], x2[i])
			}
		}
		y1 := make([]float64, m)
		y2 := make([]float64, m)
		f.btran(append([]float64(nil), b...), y1)
		g.btran(append([]float64(nil), b...), y2)
		for i := range y1 {
			if math.Abs(y1[i]-y2[i]) > 1e-6*(1+math.Abs(y2[i])) {
				t.Fatalf("trial %d m=%d etas=%d: eta btran y[%d]=%g scratch=%g", trial, m, f.nEtas(), i, y1[i], y2[i])
			}
		}
	}
}

// resultBits serializes every observable field of a Result, solution
// vector at full float bit precision, for exact-equality comparisons.
func resultBits(r Result) string {
	s := ""
	s += r.Status.String()
	s += "/"
	for _, v := range r.X {
		s += "." + uintToHex(math.Float64bits(v))
	}
	s += "/" + uintToHex(math.Float64bits(r.Obj))
	s += "/" + uintToHex(uint64(r.Iters))
	s += "/" + uintToHex(uint64(r.CleanupIters))
	return s
}

func uintToHex(u uint64) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = digits[u&0xf]
		u >>= 4
	}
	return string(out)
}

// TestHotMatchesReplayBitwise is the determinism keystone of the LU
// core: re-solving from a basis snapshot must produce bit-identical
// results whether the instance still holds the live factorization that
// captured the snapshot (hot reuse), reconstructs it by replaying the
// snapshot's recipe on a fresh instance, or is forced to reconstruct via
// FreshFactor. Branch-and-bound's worker-count determinism rests on
// exactly this equivalence.
func TestHotMatchesReplayBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for trial := 0; trial < 120; trial++ {
		p := randomLP(rng)
		n := p.NumVars()
		inLive := Prepare(p)
		res := inLive.Solve(p.Lb, p.Ub, Options{})
		if res.Status != Optimal || res.Basis == nil {
			continue
		}
		lb := append([]float64(nil), p.Lb...)
		ub := append([]float64(nil), p.Ub...)
		j := rng.Intn(n)
		ub[j] = math.Floor(lb[j] + rng.Float64()*(ub[j]-lb[j]))
		for _, perturb := range []bool{false, true} {
			opts := Options{Perturb: perturb, PerturbSeq: uint64(trial)}
			// Hot: inLive's factorization is live for res.Basis.
			hot := inLive.SolveFrom(res.Basis, lb, ub, opts)
			hotStats := inLive.Stats()
			// Replay on a fresh instance (no live state at all).
			inFresh := Prepare(p)
			inFresh.Solve(p.Lb, p.Ub, Options{}) // unrelated state to overwrite
			replay := inFresh.SolveFrom(res.Basis, lb, ub, opts)
			// Forced reconstruction on a third instance.
			inForced := Prepare(p)
			forced := inForced.SolveFrom(res.Basis, lb, ub, Options{
				Perturb: perturb, PerturbSeq: uint64(trial), FreshFactor: true,
			})
			if hotStats.HotSolves < 1 {
				t.Fatalf("trial %d perturb=%v: hot path did not fire (stats %+v)", trial, perturb, hotStats)
			}
			hb, rb, fb := resultBits(hot), resultBits(replay), resultBits(forced)
			if hb != rb {
				t.Fatalf("trial %d perturb=%v: hot and replayed solves diverged\nhot:    %s\nreplay: %s", trial, perturb, hb, rb)
			}
			if hb != fb {
				t.Fatalf("trial %d perturb=%v: hot and FreshFactor solves diverged\nhot:    %s\nforced: %s", trial, perturb, hb, fb)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d trials produced a usable basis; fixture degenerated", checked)
	}
}

// TestHotSolvesCounterFires pins the serial-dive hot path end to end
// via the FactorStats counter: a SolveFrom immediately after the solve
// that captured the basis must reuse the live factorization (no
// refactorization, no replay), and an interleaved solve that overwrites
// the live state must force the replay path instead.
func TestHotSolvesCounterFires(t *testing.T) {
	p := NewProblem(3)
	p.Obj = []float64{-4, -5, -3}
	for j := range p.Ub {
		p.Ub[j] = 1
	}
	p.AddRow([]Coef{{0, 2}, {1, 3}, {2, 1}}, LE, 4)
	in := Prepare(p)
	res := in.Solve(p.Lb, p.Ub, Options{})
	if res.Status != Optimal || res.Basis == nil {
		t.Fatalf("cold: %+v", res)
	}
	base := in.Stats()
	lb := append([]float64(nil), p.Lb...)
	ub := append([]float64(nil), p.Ub...)
	ub[1] = 0
	// Dive: basis is the live one → hot, no new refactorization needed
	// to start the solve.
	warm := in.SolveFrom(res.Basis, lb, ub, Options{})
	if warm.Status != Optimal {
		t.Fatalf("warm: %+v", warm)
	}
	st := in.Stats()
	if got := st.HotSolves - base.HotSolves; got != 1 {
		t.Fatalf("dive HotSolves=%d want 1 (stats %+v)", got, st)
	}
	if st.Replays != base.Replays {
		t.Fatalf("dive took the replay path (stats %+v)", st)
	}
	// Interleave a solve that overwrites the live factorization; the
	// old basis must now reconstruct (replay), not hot-reuse.
	if r := in.Solve(p.Lb, p.Ub, Options{}); r.Status != Optimal {
		t.Fatalf("interleaved: %+v", r)
	}
	base = in.Stats()
	warm2 := in.SolveFrom(warm.Basis, lb, ub, Options{})
	if warm2.Status != Optimal {
		t.Fatalf("warm2: %+v", warm2)
	}
	st = in.Stats()
	if st.HotSolves != base.HotSolves {
		t.Fatalf("stale basis hot-reused a mismatched factorization (stats %+v)", st)
	}
	// FreshFactor must bypass the hot path even when it would match.
	res3 := in.Solve(p.Lb, p.Ub, Options{})
	base = in.Stats()
	if r := in.SolveFrom(res3.Basis, lb, ub, Options{FreshFactor: true}); r.Status != Optimal {
		t.Fatalf("fresh: %+v", r)
	}
	st = in.Stats()
	if st.HotSolves != base.HotSolves {
		t.Fatalf("FreshFactor did not bypass the hot path (stats %+v)", st)
	}
}

// btranGather is the gather-form BTRAN that the hypersparse btran
// replaced, kept as its reference: every eta streams all of its entries
// (zero terms included) and the Uᵀ solve reads U by column through a
// transposed copy, one dot product per stage.
func btranGather(f *luFactor, c, y []float64) {
	m := f.m
	for e := len(f.eLeave) - 1; e >= 0; e-- {
		lv := f.eLeave[e]
		v := c[lv]
		for q := f.ePtr[e]; q < f.ePtr[e+1]; q++ {
			v -= f.eVal[q] * c[f.eIdx[q]]
		}
		c[lv] = v / f.ePiv[e]
	}
	// U by column: the entries of basis position p are (stage, value)
	// pairs at [ucPtr[p], ucPtr[p+1]), stages ascending.
	ucPtr := make([]int32, m+1)
	for _, p := range f.uCol {
		ucPtr[p+1]++
	}
	for p := 0; p < m; p++ {
		ucPtr[p+1] += ucPtr[p]
	}
	ucStage := make([]int32, len(f.uCol))
	ucVal := make([]float64, len(f.uCol))
	cur := append([]int32(nil), ucPtr[:m]...)
	for k := 0; k < m; k++ {
		for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
			p := f.uCol[t]
			ucStage[cur[p]], ucVal[cur[p]] = int32(k), f.uVal[t]
			cur[p]++
		}
	}
	zs := make([]float64, m)
	for k := 0; k < m; k++ {
		p := f.pcol[k]
		v := c[p]
		for q := ucPtr[p]; q < ucPtr[p+1]; q++ {
			v -= ucVal[q] * zs[ucStage[q]]
		}
		zs[k] = v / f.upiv[k]
	}
	for k := 0; k < m; k++ {
		y[f.prow[k]] = zs[k]
	}
	for k := m - 1; k >= 0; k-- {
		v := y[f.prow[k]]
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			v -= f.lVal[t] * y[f.lRow[t]]
		}
		y[f.prow[k]] = v
	}
}

// etaRevivals counts, for the eta pass alone, the etas that turn a
// position nonzero after it had cancelled to exactly zero earlier in the
// same pass — the case where a nonzero-position list must not take the
// position in twice. c is not modified.
func etaRevivals(f *luFactor, c []float64) int {
	c = append([]float64(nil), c...)
	cancelled := make([]bool, f.m)
	n := 0
	for e := len(f.eLeave) - 1; e >= 0; e-- {
		lv := f.eLeave[e]
		v := c[lv]
		for q := f.ePtr[e]; q < f.ePtr[e+1]; q++ {
			v -= f.eVal[q] * c[f.eIdx[q]]
		}
		v /= f.ePiv[e]
		switch {
		case v == 0 && c[lv] != 0:
			cancelled[lv] = true
		case v != 0 && cancelled[lv]:
			n++
			cancelled[lv] = false
		}
		c[lv] = v
	}
	return n
}

// randomEta appends an eta whose leave position and entries (density
// ~dens) are drawn from pool, with small integer values, so eta passes
// over integer right-hand sides stay exact and cancel to exactly zero
// often.
func randomEta(rng *rand.Rand, f *luFactor, pool []int, dens float64) {
	w := make([]float64, f.m)
	for _, i := range pool {
		if rng.Float64() < dens {
			w[i] = float64(rng.Intn(5) - 2)
		}
	}
	leave := pool[rng.Intn(len(pool))]
	w[leave] = []float64{-2, -1, 1, 2}[rng.Intn(4)]
	f.appendEta(leave, w)
}

// TestBtranSparseMatchesDense checks the hypersparse btran against the
// gather-form reference on random sparse bases carrying 0…refactorEvery
// etas, for unit, sparse (below the dense switch), dense (above it) and
// integer right-hand sides whose entries cancel to exactly zero mid-pass
// and turn nonzero again. Every entry must be equal under ==: the two
// add the same nonzero terms in the same order, so only the sign of a
// zero may differ.
func TestBtranSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	revivals := 0
	for trial := 0; trial < 150; trial++ {
		m := 20 + rng.Intn(180)
		_, col := randomSparseMatrix(rng, m, 3/float64(m))
		f := newLUFactor(m)
		if !f.factor(col) {
			continue
		}
		// Etas over all positions, or over a pool small enough that the
		// whole pass stays below the dense switch: there a position that
		// cancels and revives is read again by older etas.
		limit := m / btranDenseFrac
		pool := rng.Perm(m)
		if trial%2 == 1 {
			pool = pool[:limit/2]
		}
		nEta := rng.Intn(refactorEvery + 1)
		dens := 0.01 + 0.4*rng.Float64()
		for e := 0; e < nEta; e++ {
			randomEta(rng, f, pool, dens)
		}
		for shape := 0; shape < 4; shape++ {
			c := make([]float64, m)
			var name string
			switch shape {
			case 0:
				name = "unit"
				c[rng.Intn(m)] = 1
			case 1:
				name = "sparse"
				for k := 1 + rng.Intn(limit); k > 0; k-- {
					c[rng.Intn(m)] = float64(rng.Intn(7) - 3)
				}
			case 2:
				name = "dense"
				for i := range c {
					c[i] = rng.NormFloat64()
				}
			case 3:
				name = "cancel"
				// Small integers inside the eta pool.
				for k := 1 + rng.Intn(limit/2); k > 0; k-- {
					c[pool[rng.Intn(len(pool))]] = float64(rng.Intn(5) - 2)
				}
			}
			revivals += etaRevivals(f, c)
			want := make([]float64, m)
			got := make([]float64, m)
			btranGather(f, append([]float64(nil), c...), want)
			f.btran(append([]float64(nil), c...), got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d m=%d etas=%d %s: y[%d]=%v, gather form %v", trial, m, nEta, name, i, got[i], want[i])
				}
			}
		}
	}
	if revivals < 10 {
		t.Fatalf("only %d cancel-then-revive eta steps exercised; fixture degenerated", revivals)
	}
}

// BenchmarkBtran times one BTRAN on a fixed random 2000-row factor
// carrying 64 etas: `unit` is the btranRow shape (one nonzero), `dense`
// the duals shape (every entry nonzero).
func BenchmarkBtran(b *testing.B) {
	const m, nEta = 2000, 64
	rng := rand.New(rand.NewSource(3))
	_, col := randomSparseMatrix(rng, m, 3.0/m)
	f := newLUFactor(m)
	if !f.factor(col) {
		b.Fatal("benchmark factor is singular")
	}
	w := make([]float64, m)
	for f.nEtas() < nEta {
		a := make([]float64, m)
		for k := 0; k < 4; k++ {
			a[rng.Intn(m)] = rng.NormFloat64()
		}
		leave := rng.Intn(m)
		f.ftran(a, w)
		if math.Abs(w[leave]) >= 1e-3 {
			f.appendEta(leave, w)
		}
	}
	unit := make([]float64, m)
	unit[m/2] = 1
	dense := make([]float64, m)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	c, y := make([]float64, m), make([]float64, m)
	for _, bc := range []struct {
		name string
		rhs  []float64
	}{{"unit", unit}, {"dense", dense}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(c, bc.rhs)
				f.btran(c, y)
			}
		})
	}
}
