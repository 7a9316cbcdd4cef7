package grammar

import "repro/internal/guard"

// rows is an adjacency in CSR form: row i is at[start[i]:start[i+1]].
type rows struct {
	start []int32
	at    []int32
}

func (r *rows) row(i int) []int32 { return r.at[r.start[i]:r.start[i+1]] }

// buildRows lays out n rows from a pair enumeration that it runs twice,
// once to size the rows and once to fill them, so the rows take two
// exact allocations and keep each row's pairs in enumeration order.
func buildRows(n int, pairs func(emit func(row, val int32))) rows {
	r := rows{start: make([]int32, n+1)}
	pairs(func(row, _ int32) { r.start[row+1]++ })
	for i := 0; i < n; i++ {
		r.start[i+1] += r.start[i]
	}
	r.at = make([]int32, r.start[n])
	// Fill with start[row] as the row's cursor; afterwards each cursor
	// sits at the next row's start, so shifting right by one restores
	// the offsets.
	pairs(func(row, val int32) {
		r.at[r.start[row]] = val
		r.start[row]++
	})
	copy(r.start[1:], r.start[:n])
	r.start[0] = 0
	return r
}

// derive saturates the Horn clauses the productions spell out: X is
// derived once some production X → α has every premise in α derived.
// A nonterminal premise holds once it is derived; a terminal holds from
// the start when terminalsHold (the productive set) and never otherwise
// (nullability, where a terminal blocks its production for good).
// Each production counts its open premises; deriving a nonterminal
// decrements the count once per occurrence, and the production fires at
// zero.  Every occurrence is visited once, so the saturation is linear
// in the grammar.  The worklist checkpoints once per derived
// nonterminal.
func derive(g *Grammar, terminalsHold bool, bud *guard.Budget) ([]bool, error) {
	derived := make([]bool, g.NumNonterminals())
	// open[p] counts p's nonterminal premises not yet derived; -1 marks
	// a production a terminal blocks.
	open := make([]int32, len(g.prods))
	for p := range g.prods {
		for _, s := range g.prods[p].Rhs {
			if g.IsNonterminal(s) {
				open[p]++
			} else if !terminalsHold {
				open[p] = -1
				break
			}
		}
	}
	// Row X lists the productions still waiting on X, once per
	// occurrence of X.
	occ := buildRows(len(derived), func(emit func(row, val int32)) {
		for p := range g.prods {
			if open[p] <= 0 {
				continue
			}
			for _, s := range g.prods[p].Rhs {
				if g.IsNonterminal(s) {
					emit(int32(g.NtIndex(s)), int32(p))
				}
			}
		}
	})
	work := make([]int32, 0, len(derived)) // derived, occurrences not yet counted down
	fire := func(p int32) {
		if ni := g.NtIndex(g.prods[p].Lhs); !derived[ni] {
			derived[ni] = true
			work = append(work, int32(ni))
		}
	}
	for p := range open {
		if open[p] == 0 {
			fire(int32(p))
		}
	}
	for len(work) > 0 {
		if err := bud.Check(); err != nil {
			return nil, err
		}
		x := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range occ.row(int(x)) {
			open[p]--
			if open[p] == 0 {
				fire(p)
			}
		}
	}
	return derived, nil
}
