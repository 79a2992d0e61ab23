package lp

import (
	"math"
	"testing"
)

// TestPrimalRatioTieLargestPivotLeaves pins the primal ratio test's tie
// rule: the entering column x is blocked by two rows at exactly the same
// ratio, and the row with the larger |α| must leave. Both tie-breaks reach
// an optimal vertex in one pivot, so the final basis shows which row
// left.
//
//	min −x  s.t.  x + s0 = 1,  2x + s1 = 2,  x, s0, s1 ≥ 0
//
// From the slack basis, x enters with column (1, 2): both slacks hit zero
// at t = 1, and row 1 (|α| = 2) must leave, keeping s0 basic at zero.
func TestPrimalRatioTieLargestPivotLeaves(t *testing.T) {
	p := NewProblem(1)
	p.Obj[0] = -1
	p.AddRow([]Coef{{0, 1}}, LE, 1)
	p.AddRow([]Coef{{0, 2}}, LE, 2)
	res := Solve(p, Options{})
	if res.Status != Optimal || res.Basis == nil {
		t.Fatalf("status %v, basis %v", res.Status, res.Basis)
	}
	if math.Abs(res.Obj+1) > 1e-9 || math.Abs(res.X[0]-1) > 1e-9 {
		t.Fatalf("obj %g, x %v; want −1 at x = 1", res.Obj, res.X)
	}
	if res.Iters != 1 {
		t.Fatalf("%d iterations; want the single tied pivot", res.Iters)
	}
	s0, s1 := 1, 2 // slack columns follow the structural one
	if res.Basis.stat[s0] != basic || res.Basis.stat[s1] == basic {
		t.Fatalf("row 0 (|α| = 1) left instead of row 1 (|α| = 2): stat %v", res.Basis.stat)
	}
}

// TestDualBFRTEqualRatiosLargestPivotEnters pins the bound-flipping dual
// ratio test's grouping: two breakpoints with exactly equal ratios form
// one group, and the member with the larger |α| pivots.
//
//	min x1 + 2·x2  s.t.  x1 + 2·x2 + z ≥ 4,  x1, x2 ≥ 0,  0 ≤ z ≤ 10
//
// The cold optimum has z = 4 basic (duals zero, d = (1, 2)). Tightening
// z ≤ 1 makes z's row leave the basis in the warm dual re-solve; the
// breakpoints are x1 at |d|/|α| = 1/1 and x2 at 2/2, both able to absorb
// the whole infeasibility, and x2 (|α| = 2) must enter. Either choice is
// optimal (objective 3), so the final basis shows which one pivoted.
func TestDualBFRTEqualRatiosLargestPivotEnters(t *testing.T) {
	p := NewProblem(3)
	p.Obj[0], p.Obj[1] = 1, 2
	p.Ub[2] = 10
	p.AddRow([]Coef{{0, 1}, {1, 2}, {2, 1}}, GE, 4)
	in := Prepare(p)
	cold := in.Solve(p.Lb, p.Ub, Options{})
	if cold.Status != Optimal || cold.Basis == nil {
		t.Fatalf("cold: status %v, basis %v", cold.Status, cold.Basis)
	}
	if cold.Basis.stat[2] != basic || math.Abs(cold.X[2]-4) > 1e-9 {
		t.Fatalf("fixture: cold optimum %v with stat %v; want z = 4 basic", cold.X, cold.Basis.stat)
	}
	ub := []float64{Inf, Inf, 1}
	warm := in.SolveFrom(cold.Basis, p.Lb, ub, Options{})
	if warm.Status != Optimal || warm.ColdRestart || warm.Basis == nil {
		t.Fatalf("warm: status %v, cold restart %v, basis %v", warm.Status, warm.ColdRestart, warm.Basis)
	}
	if math.Abs(warm.Obj-3) > 1e-9 || math.Abs(warm.X[2]-1) > 1e-9 {
		t.Fatalf("warm: obj %g, x %v; want 3 with z = 1", warm.Obj, warm.X)
	}
	if warm.Basis.stat[1] != basic || warm.Basis.stat[0] == basic {
		t.Fatalf("x1 (|α| = 1) entered instead of x2 (|α| = 2): x %v, stat %v", warm.X, warm.Basis.stat)
	}
	if math.Abs(warm.X[1]-1.5) > 1e-9 {
		t.Fatalf("warm: x2 = %g; want 1.5", warm.X[1])
	}
}
