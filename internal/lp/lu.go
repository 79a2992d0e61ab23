package lp

import (
	"math"
	"math/bits"
	"slices"
)

// This file implements the sparse LU factorization that backs the
// simplex basis: Markowitz-style pivot selection with threshold partial
// pivoting, Suhl–Suhl-style sparse triangular FTRAN/BTRAN solves, and a
// product-form eta file for basis updates. It replaces the former dense
// m×m explicit inverse (kept in SolveDense as the cross-check oracle):
// per-iteration work drops from O(m²) to O(nnz of the factors), which is
// what lifts the row ceiling on the scheduling ILPs.
//
// BTRAN is hypersparse (Hall & McKinnon 2005): simplex BTRAN right-hand
// sides are unit vectors or cost vectors with a handful of nonzeros,
// while each eta holds a large fraction of m entries. The eta pass keeps
// the sorted nonzero positions of the right-hand side and finds each
// one's entry in an eta through a per-eta position bitmap with per-word
// ranks, so an eta's dot product costs the RHS's nonzeros, not the eta's
// length; past m/btranDenseFrac nonzeros it streams the eta entries as
// a dense gather would. The Uᵀ solve runs by rows in stage order,
// scattering only from stages whose value is nonzero. Every accumulator
// still receives the same nonzero terms in the same order as the dense
// gather, so the results equal it under == (only the sign of an exact
// zero may differ, and no caller reads that sign).
//
// Everything here is deterministic: pivot selection scans candidates in
// a fixed order with exact tie-breaks, and every solve applies float
// operations in a fixed order, so a factorization (and any FTRAN/BTRAN
// against it) is a bit-for-bit pure function of the basis columns and
// the eta history. sparse.go builds on that to make warm re-solves pure
// functions of (matrix, basis, bounds, seq) — see the replay-recipe
// comments there and DESIGN.md ("Sparse LU core").

// luThreshold is the threshold-partial-pivoting factor: a pivot must
// satisfy |a| ≥ luThreshold·(largest |entry| in its column). Smaller
// values trade worst-case stability (1.0 = exact partial pivoting) for
// Markowitz freedom to pick low-fill pivots; 0.05 was chosen by sweeping
// the degenerate-scheduling fixture (see ilpsched.TestDegenerateSchedul-
// ingModelStallCeiling), where it also gives the least-degenerate pivot
// paths of the sampled settings, and drift is bounded by the periodic
// refactorization plus the dense cross-check suite.
const luThreshold = 0.05

// luAbsPivot is the absolute singularity cutoff: a stage whose best
// eligible pivot is smaller than this declares the basis singular, the
// same constant the dense Gauss–Jordan refactorization used.
const luAbsPivot = 1e-10

// luScanLimit bounds the Markowitz search: after this many candidate
// columns have yielded at least one eligible pivot, the best seen wins.
// A zero-cost pivot (singleton row or column) short-circuits instantly.
// 32 buys a near-complete search on scheduling-ILP bases (most stages
// short-circuit on singletons anyway) and measurably less fill than
// tighter limits on the large registry models.
const luScanLimit = 32

// btranDenseFrac is the switch point of the BTRAN eta pass: once the
// right-hand side has more than m/btranDenseFrac nonzero positions, the
// remaining etas stream their entries instead of looking up each
// nonzero. Both paths add the same nonzero terms in the same order, so
// the choice moves only time, never a nonzero bit of the result.
const btranDenseFrac = 10

// etaIndexMaxRows bounds the eta position index: its per-word ranks are
// uint16, and a rank stays below the row count. Larger factors keep the
// streaming eta pass.
const etaIndexMaxRows = 1 << 16

// luFactor is a sparse LU factorization of the basis, P·B·Q = L·U,
// followed by a product-form eta file: eta e records that basis position
// eLeave[e] was replaced by a column whose FTRAN image had value ePiv[e]
// at that position; the image's other nonzeros are eIdx/eVal over
// [ePtr[e], ePtr[e+1]), positions ascending.
type luFactor struct {
	m int

	// Stage permutations: stage k eliminated matrix row prow[k] and basis
	// position (column) pcol[k].
	prow, pcol []int32

	// L multipliers per stage (CSR-like): stage k recorded
	// row[lRow[t]] -= lVal[t]·row[prow[k]] for t in [lPtr[k], lPtr[k+1]).
	lPtr []int32
	lRow []int32
	lVal []float64

	// U rows in stage order: row k holds the retired pivot row, its
	// off-pivot entries at basis positions eliminated in later stages.
	uPtr []int32
	uCol []int32
	uVal []float64
	upiv []float64 // pivot value per stage

	// Product-form eta file appended by appendEta.
	ePtr   []int32
	eIdx   []int32
	eVal   []float64
	eLeave []int32
	ePiv   []float64

	// Eta position index for the hypersparse BTRAN: eta e owns words
	// [e·eWords, (e+1)·eWords) of eBits (bit i set iff position i is in
	// its eIdx run) and of eRank (set bits in the eta's earlier words),
	// so position i sits at ePtr[e] + rank + popcount of the bits below
	// it. eWords is 0 when the factor is too large to index.
	eWords int
	eBits  []uint64
	eRank  []uint16

	nnzFactor int // nnz(L) + nnz(U) + m pivots after factor()
	nnzBasis  int // nnz of the factored basis matrix

	// --- factorization workspace, reused across factor() calls ---
	rowInd  [][]int32   // active row patterns (basis positions, sorted)
	rowVal  [][]float64 // matching values
	colRows [][]int32   // alive rows holding a nonzero in each column

	bucketOf    []int32   // current column-count bucket per column (−1: dead)
	posInBucket []int32   // position inside that bucket
	buckets     [][]int32 // columns grouped by exact nonzero count

	acc      []float64 // dense per-column gather scratch
	touched  []int32
	elimRows []int32 // snapshot of the pivot column's rows
	mergeInd []int32 // row-merge output scratch
	mergeVal []float64
	nzPos    []int32 // BTRAN scratch: sorted nonzero positions of the RHS
}

func newLUFactor(m int) *luFactor {
	f := &luFactor{
		m:           m,
		prow:        make([]int32, m),
		pcol:        make([]int32, m),
		lPtr:        make([]int32, m+1),
		uPtr:        make([]int32, m+1),
		upiv:        make([]float64, m),
		ePtr:        make([]int32, 1),
		rowInd:      make([][]int32, m),
		rowVal:      make([][]float64, m),
		colRows:     make([][]int32, m),
		bucketOf:    make([]int32, m),
		posInBucket: make([]int32, m),
		buckets:     make([][]int32, m+1),
		acc:         make([]float64, m),
		touched:     make([]int32, 0, m),
	}
	if m <= etaIndexMaxRows {
		f.eWords = (m + 63) / 64
	}
	return f
}

// resetEtas drops the eta file (after a fresh factorization).
func (f *luFactor) resetEtas() {
	f.ePtr = f.ePtr[:1]
	f.eIdx = f.eIdx[:0]
	f.eVal = f.eVal[:0]
	f.eLeave = f.eLeave[:0]
	f.ePiv = f.ePiv[:0]
	f.eBits = f.eBits[:0]
	f.eRank = f.eRank[:0]
}

// appendEta records the product-form update for a basis change at
// position leave with FTRAN image w (dense, by basis position). The
// caller has already validated the pivot magnitude.
func (f *luFactor) appendEta(leave int, w []float64) {
	start := len(f.eIdx)
	for i, v := range w[:f.m] {
		if v != 0 && i != leave {
			f.eIdx = append(f.eIdx, int32(i))
			f.eVal = append(f.eVal, v)
		}
	}
	if nw := f.eWords; nw > 0 {
		at := len(f.eBits)
		f.eBits = slices.Grow(f.eBits, nw)[:at+nw]
		words := f.eBits[at:]
		clear(words)
		for _, i := range f.eIdx[start:] {
			words[i>>6] |= 1 << (i & 63)
		}
		rank := 0
		for _, wd := range words {
			f.eRank = append(f.eRank, uint16(rank))
			rank += bits.OnesCount64(wd)
		}
	}
	f.ePtr = append(f.ePtr, int32(len(f.eIdx)))
	f.eLeave = append(f.eLeave, int32(leave))
	f.ePiv = append(f.ePiv, w[leave])
}

// nEtas returns the number of product-form updates applied since the
// last factorization.
func (f *luFactor) nEtas() int { return len(f.eLeave) }

// value returns row i's entry at column position c (0 when absent) by
// binary search of the sorted row pattern.
func (f *luFactor) value(i int, c int32) float64 {
	ind := f.rowInd[i]
	lo, hi := 0, len(ind)
	for lo < hi {
		mid := (lo + hi) / 2
		if ind[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ind) && ind[lo] == c {
		return f.rowVal[i][lo]
	}
	return 0
}

// moveCol relocates column c to the bucket for newCount, maintaining the
// swap-delete position index. Bucket order is a deterministic function
// of the (deterministic) elimination history, which is all pivot
// selection needs.
func (f *luFactor) moveCol(c int32, newCount int) {
	old := f.bucketOf[c]
	if old == int32(newCount) {
		return
	}
	if old >= 0 {
		b := f.buckets[old]
		p := f.posInBucket[c]
		last := b[len(b)-1]
		b[p] = last
		f.posInBucket[last] = p
		f.buckets[old] = b[:len(b)-1]
	}
	f.bucketOf[c] = int32(newCount)
	f.posInBucket[c] = int32(len(f.buckets[newCount]))
	f.buckets[newCount] = append(f.buckets[newCount], c)
}

// dropCol removes column c from the bucket structure (it is being
// eliminated).
func (f *luFactor) dropCol(c int32) {
	old := f.bucketOf[c]
	if old < 0 {
		return
	}
	b := f.buckets[old]
	p := f.posInBucket[c]
	last := b[len(b)-1]
	b[p] = last
	f.posInBucket[last] = p
	f.buckets[old] = b[:len(b)-1]
	f.bucketOf[c] = -1
}

// removeRowFromCol deletes row i from colRows[c] (swap-delete; the list
// is unordered but its order is deterministic).
func (f *luFactor) removeRowFromCol(i int32, c int32) {
	list := f.colRows[c]
	for p, r := range list {
		if r == i {
			list[p] = list[len(list)-1]
			f.colRows[c] = list[:len(list)-1]
			return
		}
	}
}

// factor builds the LU decomposition of the m×m basis matrix whose
// column at position p is given by col(p) as parallel (row, value)
// slices (duplicate rows accumulate, matching the dense refactorization
// it replaces). Reports false when the basis is numerically singular.
// Any previous factorization and eta file are discarded.
func (f *luFactor) factor(col func(pos int) ([]int32, []float64)) bool {
	m := f.m
	f.resetEtas()
	f.lPtr = f.lPtr[:1]
	f.lPtr[0] = 0
	f.lRow = f.lRow[:0]
	f.lVal = f.lVal[:0]
	f.uPtr = f.uPtr[:1]
	f.uPtr[0] = 0
	f.uCol = f.uCol[:0]
	f.uVal = f.uVal[:0]
	if m == 0 {
		f.nnzFactor, f.nnzBasis = 0, 0
		return true
	}

	// Gather: accumulate each column densely, then scatter into row-major
	// active storage. Iterating columns in order keeps every row pattern
	// sorted by column position without an explicit sort.
	nnz := 0
	for p := 0; p < m; p++ {
		idx, vals := col(p)
		f.touched = f.touched[:0]
		for k, r := range idx {
			if f.acc[r] == 0 {
				f.touched = append(f.touched, r)
			}
			f.acc[r] += vals[k]
		}
		list := f.colRows[p][:0]
		for _, r := range f.touched {
			if f.acc[r] != 0 {
				list = append(list, r)
				nnz++
			}
			// leave acc[r] for the scatter pass below
		}
		// Sort the row list ascending for a canonical start state.
		insertionSortInt32(list)
		f.colRows[p] = list
		for _, r := range list {
			f.rowInd[r] = append(f.rowInd[r], int32(p))
			f.rowVal[r] = append(f.rowVal[r], f.acc[r])
		}
		for _, r := range f.touched {
			f.acc[r] = 0
		}
	}
	f.nnzBasis = nnz

	// Bucket initialization from exact column counts.
	for c := 0; c < m; c++ {
		cnt := len(f.colRows[c])
		f.bucketOf[c] = int32(cnt)
		f.posInBucket[c] = int32(len(f.buckets[cnt]))
		f.buckets[cnt] = append(f.buckets[cnt], int32(c))
	}

	ok := true
	for stage := 0; stage < m; stage++ {
		pr, pc, piv := f.selectPivot()
		if pr < 0 {
			ok = false
			break
		}
		f.eliminate(stage, pr, pc, piv)
	}
	if ok {
		f.nnzFactor = len(f.lVal) + len(f.uVal) + m
	}
	// Release row/column workspace for the next factorization.
	for i := 0; i < m; i++ {
		f.rowInd[i] = f.rowInd[i][:0]
		f.rowVal[i] = f.rowVal[i][:0]
		f.colRows[i] = f.colRows[i][:0]
	}
	for k := range f.buckets {
		f.buckets[k] = f.buckets[k][:0]
	}
	return ok
}

// selectPivot runs the bounded Markowitz search: columns are examined in
// increasing nonzero-count order (bucket order within a count), each
// contributing its threshold-eligible entries as candidates scored by
// (rowCount−1)·(colCount−1). Ties break on larger |pivot|, then smaller
// row index, then earlier scan order — all deterministic.
func (f *luFactor) selectPivot() (int32, int32, float64) {
	bestRow, bestCol := int32(-1), int32(-1)
	bestVal := 0.0
	bestCost := math.MaxInt64 - 1
	scanned := 0
	for cnt := 1; cnt <= f.m; cnt++ {
		for _, c := range f.buckets[cnt] {
			rows := f.colRows[c]
			colmax := 0.0
			for _, i := range rows {
				if a := math.Abs(f.value(int(i), c)); a > colmax {
					colmax = a
				}
			}
			if colmax < luAbsPivot {
				continue // numerically empty column; unusable this stage
			}
			eligible := false
			for _, i := range rows {
				v := f.value(int(i), c)
				a := math.Abs(v)
				if a < luThreshold*colmax || a < luAbsPivot {
					continue
				}
				eligible = true
				cost := (len(f.rowInd[i]) - 1) * (cnt - 1)
				if cost < bestCost ||
					(cost == bestCost && (a > math.Abs(bestVal) ||
						(a == math.Abs(bestVal) && i < bestRow))) {
					bestCost, bestRow, bestCol, bestVal = cost, i, c, v
				}
			}
			if eligible {
				scanned++
				if bestCost == 0 || scanned >= luScanLimit {
					return bestRow, bestCol, bestVal
				}
			}
		}
	}
	return bestRow, bestCol, bestVal
}

// eliminate retires pivot (row pr, column pc, value piv) as stage k:
// records the U row and L multipliers and updates the active matrix,
// column lists and buckets.
func (f *luFactor) eliminate(k int, pr, pc int32, piv float64) {
	f.prow[k] = pr
	f.pcol[k] = pc
	f.upiv[k] = piv
	f.dropCol(pc)

	// Retire the pivot row: remove it from every column list (its entries
	// all reference alive columns) and emit the U row.
	pInd, pVal := f.rowInd[pr], f.rowVal[pr]
	for t, c := range pInd {
		f.removeRowFromCol(pr, c)
		if c != pc {
			f.moveCol(c, len(f.colRows[c]))
			f.uCol = append(f.uCol, c)
			f.uVal = append(f.uVal, pVal[t])
		}
	}
	f.uPtr = append(f.uPtr, int32(len(f.uCol)))

	// Eliminate the pivot column from the remaining rows.
	f.elimRows = append(f.elimRows[:0], f.colRows[pc]...)
	for _, i := range f.elimRows {
		l := f.value(int(i), pc) / piv
		f.lRow = append(f.lRow, i)
		f.lVal = append(f.lVal, l)
		f.mergeRow(int(i), pInd, pVal, l, pc)
	}
	f.lPtr = append(f.lPtr, int32(len(f.lRow)))
	f.colRows[pc] = f.colRows[pc][:0]
	f.rowInd[pr] = f.rowInd[pr][:0]
	f.rowVal[pr] = f.rowVal[pr][:0]
}

// mergeRow applies row_i −= l·pivotRow, dropping the pivot column from
// the result and keeping column lists and buckets exact (fills append,
// exact cancellations delete).
func (f *luFactor) mergeRow(i int, pInd []int32, pVal []float64, l float64, pc int32) {
	aInd, aVal := f.rowInd[i], f.rowVal[i]
	out := f.mergeInd[:0]
	outV := f.mergeVal[:0]
	pa, pb := 0, 0
	for pa < len(aInd) || pb < len(pInd) {
		switch {
		case pb >= len(pInd) || (pa < len(aInd) && aInd[pa] < pInd[pb]):
			out = append(out, aInd[pa])
			outV = append(outV, aVal[pa])
			pa++
		case pa >= len(aInd) || pInd[pb] < aInd[pa]:
			c := pInd[pb]
			if c != pc { // fill-in
				v := -l * pVal[pb]
				if v != 0 {
					out = append(out, c)
					outV = append(outV, v)
					f.colRows[c] = append(f.colRows[c], int32(i))
					f.moveCol(c, len(f.colRows[c]))
				}
			}
			pb++
		default: // same column
			c := aInd[pa]
			if c != pc {
				v := aVal[pa] - l*pVal[pb]
				if v != 0 {
					out = append(out, c)
					outV = append(outV, v)
				} else { // exact cancellation
					f.removeRowFromCol(int32(i), c)
					f.moveCol(c, len(f.colRows[c]))
				}
			}
			pa++
			pb++
		}
	}
	// Swap the merged buffers into the row, keeping the old backing
	// arrays as the next merge scratch.
	f.rowInd[i], f.mergeInd = out, aInd[:0]
	f.rowVal[i], f.mergeVal = outV, aVal[:0]
}

// ftran solves B·w = b in place: b is the right-hand side indexed by
// matrix row (destroyed), w receives the solution indexed by basis
// position. The L pass skips stages whose pivot-row value is zero (the
// Suhl–Suhl sparse-RHS skip: simplex right-hand sides are a handful of
// nonzeros), and the eta file is applied oldest-first.
func (f *luFactor) ftran(b, w []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		bk := b[f.prow[k]]
		if bk == 0 {
			continue
		}
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			b[f.lRow[t]] -= f.lVal[t] * bk
		}
	}
	for k := m - 1; k >= 0; k-- {
		v := b[f.prow[k]]
		for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
			v -= f.uVal[t] * w[f.uCol[t]]
		}
		w[f.pcol[k]] = v / f.upiv[k]
	}
	ne := len(f.eLeave)
	for e := 0; e < ne; e++ {
		lv := f.eLeave[e]
		t := w[lv]
		if t == 0 {
			continue
		}
		t /= f.ePiv[e]
		for q := f.ePtr[e]; q < f.ePtr[e+1]; q++ {
			w[f.eIdx[q]] -= f.eVal[q] * t
		}
		w[lv] = t
	}
}

// btran solves Bᵀ·y = c in place: c is indexed by basis position
// (destroyed), y receives the solution indexed by matrix row. Eta
// transposes apply newest-first, then the Uᵀ forward substitution (by
// rows: each stage's solved value is scattered into the positions of
// later stages, so every position still receives its terms in ascending
// stage order) and the reverse Lᵀ sweep.
func (f *luFactor) btran(c, y []float64) {
	m := f.m
	f.btranEtas(c)
	for k := 0; k < m; k++ {
		z := c[f.pcol[k]] / f.upiv[k]
		y[f.prow[k]] = z
		if z == 0 {
			continue
		}
		for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
			c[f.uCol[t]] -= f.uVal[t] * z
		}
	}
	for k := m - 1; k >= 0; k-- {
		v := y[f.prow[k]]
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			v -= f.lVal[t] * y[f.lRow[t]]
		}
		y[f.prow[k]] = v
	}
}

// btranEtas applies the eta transposes to c newest-first: eta e sets
// c[leave] = (c[leave] − Σ eVal·c[eIdx]) / ePiv, the sum taken over the
// eta's positions ascending. While c has at most m/btranDenseFrac
// nonzero positions, the sum walks c's sorted nonzero positions and
// looks each up in the eta's position index, skipping zero terms (which
// changes at most the sign of a zero sum); after that it streams the
// eta's entries.
func (f *luFactor) btranEtas(c []float64) {
	e := len(f.eLeave) - 1
	if e < 0 {
		return
	}
	if nw := f.eWords; nw > 0 {
		limit := f.m / btranDenseFrac
		nz := f.nzPos[:0]
		for i, v := range c[:f.m] {
			if v != 0 {
				nz = append(nz, int32(i))
			}
		}
		for ; e >= 0 && len(nz) <= limit; e-- {
			lv := f.eLeave[e]
			v := c[lv]
			base := f.ePtr[e]
			words := f.eBits[e*nw : (e+1)*nw]
			rank := f.eRank[e*nw : (e+1)*nw]
			for _, p := range nz {
				wd := words[p>>6]
				bit := uint64(1) << (p & 63)
				if wd&bit == 0 {
					continue
				}
				if x := c[p]; x != 0 {
					q := base + int32(rank[p>>6]) + int32(bits.OnesCount64(wd&(bit-1)))
					v -= f.eVal[q] * x
				}
			}
			v /= f.ePiv[e]
			c[lv] = v
			// A position that cancelled to zero stays listed, so one
			// turning nonzero again is found, not inserted twice.
			if v != 0 {
				if at, found := slices.BinarySearch(nz, lv); !found {
					nz = slices.Insert(nz, at, lv)
				}
			}
		}
		f.nzPos = nz[:0]
	}
	for ; e >= 0; e-- {
		lv := f.eLeave[e]
		v := c[lv]
		for q := f.ePtr[e]; q < f.ePtr[e+1]; q++ {
			v -= f.eVal[q] * c[f.eIdx[q]]
		}
		c[lv] = v / f.ePiv[e]
	}
}

// insertionSortInt32 sorts a short int32 slice ascending (column lists
// at gather time are near-sorted already).
func insertionSortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
