// Package packed implements yacc-style parse-table compression: default
// reductions plus comb (row-displacement) packing of the remaining
// entries into shared next/check arrays.  Table size was a first-order
// concern for the paper's contemporaries — generators of the era
// shipped exactly this encoding — and the compression statistics are
// reported as a supplementary experiment table.
//
// Semantics note: in a state whose error entries are covered by a
// default reduction, errors are detected only after performing that
// reduction (never after a shift), exactly like yacc.  The accepted
// language is unchanged; only the timing of error reports moves.
package packed

import (
	"fmt"

	"repro/internal/grammar"
	"repro/internal/lalrtable"
	"repro/internal/obs"
)

// Tables is the compressed form of a lalrtable.Tables.
type Tables struct {
	G *lalrtable.Tables // retained for grammar metadata and fallback

	// DefaultReduce[q] is the production index of q's default
	// reduction, or -1.
	DefaultReduce []int32

	// Row-displacement arrays for ACTION: for state q and terminal t,
	// if Check[Base[q]+t] == q the entry is Next[Base[q]+t], else the
	// default applies.  Base is offset so Base[q]+t is always in range.
	Base  []int32
	Next  []lalrtable.Action
	Check []int32

	// GOTO is packed the same way per state over nonterminal indices.
	GotoBase  []int32
	GotoNext  []int32
	GotoCheck []int32
}

// Pack compresses t.
func Pack(t *lalrtable.Tables) *Tables {
	return PackObserved(t, nil)
}

// PackObserved is Pack with a packing span and the packed-cell counter
// recorded into rec (which may be nil).
func PackObserved(t *lalrtable.Tables, rec *obs.Recorder) *Tables {
	sp := rec.Start("table-pack")
	p := &Tables{G: t}
	p.packActions(t)
	p.packGotos(t)
	sp.End()
	if rec != nil {
		rec.Add(obs.CTableCellsPacked, int64(p.Stats().PackedCells))
	}
	return p
}

func (p *Tables) packActions(t *lalrtable.Tables) {
	numT := t.G.NumTerminals()
	p.DefaultReduce = make([]int32, t.NumStates)
	rows := make([][]entry, t.NumStates)
	for q := 0; q < t.NumStates; q++ {
		// Choose the most frequent reduction as the default.
		counts := map[int]int{}
		best, bestN := -1, 0
		for _, a := range t.Action[q] {
			if a.Kind() == lalrtable.Reduce {
				counts[a.Target()]++
				if counts[a.Target()] > bestN {
					best, bestN = a.Target(), counts[a.Target()]
				}
			}
		}
		p.DefaultReduce[q] = int32(best)
		def := lalrtable.Action(0)
		if best >= 0 {
			def = lalrtable.MakeReduce(best)
		}
		for term, a := range t.Action[q] {
			if a != def && a.Kind() != lalrtable.Error {
				rows[q] = append(rows[q], entry{col: term, act: a})
			}
			// Error entries never need storing: a miss either hits the
			// default reduction (yacc semantics) or reports the error.
		}
	}
	p.Base, p.Next, p.Check = displace(rows, numT)
}

func (p *Tables) packGotos(t *lalrtable.Tables) {
	g := t.G
	rows := make([][]entry, t.NumStates)
	for q, s := range t.Auto.States {
		for _, tr := range s.Transitions {
			if !g.IsTerminal(tr.Sym) {
				rows[q] = append(rows[q], entry{col: g.NtIndex(tr.Sym), act: lalrtable.Action(tr.To)})
			}
		}
	}
	base, next, check := displace(rows, g.NumNonterminals())
	p.GotoBase = base
	p.GotoCheck = check
	p.GotoNext = make([]int32, len(next))
	for i, a := range next {
		p.GotoNext[i] = int32(a)
	}
}

type entry struct {
	col int
	act lalrtable.Action
}

// displace packs sparse rows into shared next/check arrays by first-fit
// row displacement.  width is the column universe size; the arrays are
// padded so base+col never indexes out of range.
//
// The base search is exact first-fit (smallest b ≥ 0 with every b+col
// slot free) but skips provably-colliding candidates: nf is a path-
// compressed next-free skip list over the occupied slots, and a
// collision at slot i rules out every base whose conflicting column
// would land in the occupied run starting at i, so the search jumps
// straight past that run instead of advancing b by one.  The chosen
// bases — and therefore the packed arrays — are identical to the naive
// scan's.
func displace(rows [][]entry, width int) (base []int32, next []lalrtable.Action, check []int32) {
	base = make([]int32, len(rows))
	// Upper bound on needed space: sum of row entries + width padding.
	total := width
	for _, r := range rows {
		total += len(r)
	}
	next = make([]lalrtable.Action, 0, total)
	check = make([]int32, 0, total)
	// nf[i] is meaningful only while check[i] >= 0: a slot at or after
	// i+1 on the way to the next free slot.
	nf := make([]int32, 0, total)
	grow := func(n int) {
		for len(next) < n {
			next = append(next, 0)
			check = append(check, -1)
			nf = append(nf, 0)
		}
	}
	// free returns the first free slot at or after i, path-compressing
	// the chain it walked so later searches over the same run are O(1).
	free := func(i int) int {
		j := i
		for j < len(check) && check[j] >= 0 {
			j = int(nf[j])
		}
		for i < len(check) && check[i] >= 0 {
			i, nf[i] = int(nf[i]), int32(j)
		}
		return j
	}
	for q, row := range rows {
		if len(row) == 0 {
			base[q] = 0
			continue
		}
		// First-fit: smallest b ≥ 0 such that all b+col slots are free.
		b := 0
	search:
		for {
			for _, e := range row {
				i := b + e.col
				if i < len(check) && check[i] >= 0 {
					// Slots i .. free(i+1)-1 are occupied, so every base
					// in (b, free(i+1)-e.col) collides on this column
					// too; the jump lands on the smallest candidate not
					// yet refuted (≥ b+1, preserving exact first-fit).
					b = free(i+1) - e.col
					continue search
				}
			}
			break
		}
		base[q] = int32(b)
		for _, e := range row {
			i := b + e.col
			grow(i + 1)
			next[i] = e.act
			check[i] = int32(q)
			nf[i] = int32(i + 1)
		}
	}
	grow(len(next) + width) // padding so base+col stays in range
	return base, next, check
}

// Action looks up the packed ACTION entry for (state, term), applying
// the default-reduction rule on misses.
func (p *Tables) Action(state int, term grammar.Sym) lalrtable.Action {
	i := int(p.Base[state]) + int(term)
	if i < len(p.Check) && p.Check[i] == int32(state) {
		return p.Next[i]
	}
	if d := p.DefaultReduce[state]; d >= 0 {
		return lalrtable.MakeReduce(int(d))
	}
	return 0
}

// Goto looks up the packed GOTO entry, or -1.
func (p *Tables) Goto(state, nt int) int {
	i := int(p.GotoBase[state]) + nt
	if i < len(p.GotoCheck) && p.GotoCheck[i] == int32(state) {
		return int(p.GotoNext[i])
	}
	return -1
}

// Stats reports the space accounting of the packed representation, in
// int32-sized cells.
type Stats struct {
	States      int
	FullCells   int // NumStates × (terminals + nonterminals)
	PackedCells int // next+check+base+defaults for both tables
	Ratio       float64
}

// Stats computes the compression statistics.
func (p *Tables) Stats() Stats {
	t := p.G
	full := t.NumStates * (t.G.NumTerminals() + t.G.NumNonterminals())
	packedCells := len(p.Next) + len(p.Check) + len(p.Base) + len(p.DefaultReduce) +
		len(p.GotoNext) + len(p.GotoCheck) + len(p.GotoBase)
	return Stats{
		States:      t.NumStates,
		FullCells:   full,
		PackedCells: packedCells,
		Ratio:       float64(packedCells) / float64(full),
	}
}

// Verify checks the packed tables against the full tables: every
// non-error entry must round-trip exactly, and every error entry must
// map to either error or the state's default reduction.  Returns the
// first discrepancy.
func (p *Tables) Verify() error {
	t := p.G
	for q := 0; q < t.NumStates; q++ {
		for term := 0; term < t.G.NumTerminals(); term++ {
			full := t.Action[q][term]
			got := p.Action(q, grammar.Sym(term))
			switch full.Kind() {
			case lalrtable.Error:
				okDefault := p.DefaultReduce[q] >= 0 &&
					got == lalrtable.MakeReduce(int(p.DefaultReduce[q]))
				if got != 0 && !okDefault {
					return fmt.Errorf("packed[%d][%s] = %v for an error entry", q, t.G.SymName(grammar.Sym(term)), got)
				}
			default:
				if got != full {
					return fmt.Errorf("packed[%d][%s] = %v, want %v", q, t.G.SymName(grammar.Sym(term)), got, full)
				}
			}
		}
		for nt := 0; nt < t.G.NumNonterminals(); nt++ {
			if got, want := p.Goto(q, nt), t.Auto.States[q].Goto(t.G.NtSym(nt)); got != want {
				return fmt.Errorf("packed goto[%d][%d] = %d, want %d", q, nt, got, want)
			}
		}
	}
	return nil
}
