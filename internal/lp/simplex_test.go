// Package lp is a test-only oracle: a dense two-phase primal simplex solver
// for linear programs over non-negative variables, supporting ≤, ≥ and =
// constraints. It solves the max-load Linear Program (15) of Section 7.2 as
// written, as an independent check on loadlp.Model.MaxLoad. Bland's rule
// guarantees termination; the LPs solved here are small (tens of rows, a
// few hundred columns).
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint direction.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // ≤
	GE              // ≥
	EQ              // =
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Solver outcomes.
var (
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
)

const tol = 1e-9

// Problem is a linear program over NumVars non-negative variables.
type Problem struct {
	numVars  int
	maximize bool
	obj      []float64
	rows     [][]float64
	senses   []Sense
	rhs      []float64
}

// NewProblem creates a problem with n non-negative variables and a zero
// objective; maximize selects the optimization direction.
func NewProblem(n int, maximize bool) *Problem {
	return &Problem{numVars: n, maximize: maximize, obj: make([]float64, n)}
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.numVars }

// SetObjective sets the full objective coefficient vector.
func (p *Problem) SetObjective(c []float64) {
	if len(c) != p.numVars {
		panic(fmt.Sprintf("lp: objective has %d coefficients, want %d", len(c), p.numVars))
	}
	copy(p.obj, c)
}

// SetObjectiveCoef sets a single objective coefficient.
func (p *Problem) SetObjectiveCoef(j int, c float64) { p.obj[j] = c }

// AddConstraint adds the dense constraint coefs·x (sense) rhs.
func (p *Problem) AddConstraint(coefs []float64, sense Sense, rhs float64) {
	if len(coefs) != p.numVars {
		panic(fmt.Sprintf("lp: constraint has %d coefficients, want %d", len(coefs), p.numVars))
	}
	row := make([]float64, p.numVars)
	copy(row, coefs)
	p.rows = append(p.rows, row)
	p.senses = append(p.senses, sense)
	p.rhs = append(p.rhs, rhs)
}

// AddConstraintSparse adds a constraint given as parallel index/value
// slices.
func (p *Problem) AddConstraintSparse(idx []int, val []float64, sense Sense, rhs float64) {
	if len(idx) != len(val) {
		panic("lp: sparse constraint index/value length mismatch")
	}
	row := make([]float64, p.numVars)
	for x, j := range idx {
		if j < 0 || j >= p.numVars {
			panic(fmt.Sprintf("lp: variable %d out of range", j))
		}
		row[j] += val[x]
	}
	p.rows = append(p.rows, row)
	p.senses = append(p.senses, sense)
	p.rhs = append(p.rhs, rhs)
}

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// Solution is an optimal LP solution.
type Solution struct {
	X         []float64
	Objective float64
}

// tableau is the dense simplex working state in canonical form.
type tableau struct {
	a       [][]float64
	b       []float64
	basis   []int
	numCols int
	banned  []bool // columns excluded from entering (artificials in phase 2)
}

func (t *tableau) pivot(row, col int) {
	p := t.a[row][col]
	inv := 1 / p
	for j := 0; j < t.numCols; j++ {
		t.a[row][j] *= inv
	}
	t.b[row] *= inv
	t.a[row][col] = 1 // avoid drift
	for i := range t.a {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j < t.numCols; j++ {
			t.a[i][j] -= f * t.a[row][j]
		}
		t.a[i][col] = 0
		t.b[i] -= f * t.b[row]
	}
	t.basis[row] = col
}

// minimize runs Bland-rule simplex iterations for the cost vector, returning
// ErrUnbounded if a ray of unbounded descent is found.
func (t *tableau) minimize(costs []float64) error {
	m := len(t.a)
	for iter := 0; ; iter++ {
		if iter > 100000 {
			return errors.New("lp: iteration limit exceeded")
		}
		// Reduced costs r_j = c_j - Σ_i c_B(i) a_ij; pick Bland's smallest
		// improving column.
		entering := -1
		for j := 0; j < t.numCols; j++ {
			if t.banned[j] {
				continue
			}
			r := costs[j]
			for i := 0; i < m; i++ {
				cb := costs[t.basis[i]]
				if cb != 0 {
					r -= cb * t.a[i][j]
				}
			}
			if r < -tol {
				entering = j
				break
			}
		}
		if entering == -1 {
			return nil // optimal
		}
		// Ratio test with Bland tie-break on the leaving basic variable.
		leaving := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if t.a[i][entering] > tol {
				ratio := t.b[i] / t.a[i][entering]
				if ratio < best-tol || (ratio < best+tol && (leaving == -1 || t.basis[i] < t.basis[leaving])) {
					best = ratio
					leaving = i
				}
			}
		}
		if leaving == -1 {
			return ErrUnbounded
		}
		t.pivot(leaving, entering)
	}
}

// Solve optimizes the problem with the two-phase simplex method.
func (p *Problem) Solve() (*Solution, error) {
	m := len(p.rows)
	n := p.numVars

	// Count auxiliary columns: one slack per LE, one surplus per GE, one
	// artificial per GE/EQ row and per LE row with negative RHS (after
	// normalizing RHS signs).
	type rowSpec struct {
		coefs []float64
		rhs   float64
		sense Sense
	}
	specs := make([]rowSpec, m)
	for i := range p.rows {
		coefs := make([]float64, n)
		copy(coefs, p.rows[i])
		rhs := p.rhs[i]
		sense := p.senses[i]
		if rhs < 0 {
			for j := range coefs {
				coefs[j] = -coefs[j]
			}
			rhs = -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		specs[i] = rowSpec{coefs, rhs, sense}
	}

	numSlack := 0
	numArt := 0
	for _, s := range specs {
		switch s.sense {
		case LE:
			numSlack++
		case GE:
			numSlack++ // surplus
			numArt++
		case EQ:
			numArt++
		}
	}
	numCols := n + numSlack + numArt

	t := &tableau{
		a:       make([][]float64, m),
		b:       make([]float64, m),
		basis:   make([]int, m),
		numCols: numCols,
		banned:  make([]bool, numCols),
	}
	artStart := n + numSlack
	slackCol := n
	artCol := artStart
	isArt := make([]bool, numCols)
	for i, s := range specs {
		row := make([]float64, numCols)
		copy(row, s.coefs)
		t.b[i] = s.rhs
		switch s.sense {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			isArt[artCol] = true
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			isArt[artCol] = true
			artCol++
		}
		t.a[i] = row
	}

	// Phase 1: minimize the sum of artificials.
	if numArt > 0 {
		phase1 := make([]float64, numCols)
		for j := artStart; j < numCols; j++ {
			phase1[j] = 1
		}
		if err := t.minimize(phase1); err != nil {
			return nil, err
		}
		infeas := 0.0
		for i := range t.basis {
			if isArt[t.basis[i]] {
				infeas += t.b[i]
			}
		}
		if infeas > 1e-7 {
			return nil, ErrInfeasible
		}
		// Drive remaining zero-level artificials out of the basis.
		for i := range t.basis {
			if !isArt[t.basis[i]] {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(t.a[i][j]) > tol {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: keep the artificial basic at zero; it can
				// never re-enter because artificial columns get banned.
				t.b[i] = 0
			}
		}
		for j := artStart; j < numCols; j++ {
			t.banned[j] = true
		}
	}

	// Phase 2: optimize the real objective (as a minimization).
	costs := make([]float64, numCols)
	for j := 0; j < n; j++ {
		if p.maximize {
			costs[j] = -p.obj[j]
		} else {
			costs[j] = p.obj[j]
		}
	}
	if err := t.minimize(costs); err != nil {
		return nil, err
	}

	x := make([]float64, n)
	for i, bj := range t.basis {
		if bj < n {
			x[bj] = t.b[i]
		}
	}
	objective := 0.0
	for j := 0; j < n; j++ {
		objective += p.obj[j] * x[j]
	}
	return &Solution{X: x, Objective: objective}, nil
}
