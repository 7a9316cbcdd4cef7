package grammar

import (
	"strings"

	"repro/internal/bitset"
	"repro/internal/digraph"
	"repro/internal/guard"
)

// Analysis caches the standard grammar facts every LR construction needs:
// per-nonterminal nullability and per-symbol FIRST sets, plus FOLLOW sets
// computed on demand (only the SLR baseline needs them).
//
// FIRST and FOLLOW are bit sets over terminal indices (Sym 0..T-1).
type Analysis struct {
	G        *Grammar
	Nullable []bool       // indexed by nonterminal index
	First    []bitset.Set // indexed by Sym; terminals have singleton sets

	follow []bitset.Set // lazily computed, indexed by nonterminal index
}

// Analyze computes nullability and FIRST sets for g.
func Analyze(g *Grammar) *Analysis {
	a, err := AnalyzeBudgeted(g, nil)
	if err != nil {
		// A nil Budget enforces nothing; no error is possible.
		panic(err)
	}
	return a
}

// AnalyzeBudgeted is Analyze under a resource budget, in time linear in
// the grammar: nullability is a counter worklist (derive) and FIRST one
// Digraph pass over the nonterminals.  Both checkpoint cancellation
// once per nonterminal, under the phase "grammar-analysis".  Neither
// records relation or union counters nor charges
// guard.ResRelationEdges, which stay the look-ahead solver's.  A nil
// Budget makes it identical to Analyze.
func AnalyzeBudgeted(g *Grammar, bud *guard.Budget) (*Analysis, error) {
	defer bud.Phase(bud.Phase("grammar-analysis"))
	a := &Analysis{G: g}
	var err error
	if a.Nullable, err = derive(g, false, bud); err != nil {
		return nil, err
	}
	if err = a.computeFirst(bud); err != nil {
		return nil, err
	}
	return a, nil
}

// NullableSym reports whether s ⇒* ε.  Terminals are never nullable.
func (a *Analysis) NullableSym(s Sym) bool {
	if a.G.IsTerminal(s) {
		return false
	}
	return a.Nullable[a.G.NtIndex(s)]
}

// NullableSeq reports whether every symbol in seq is nullable.
func (a *Analysis) NullableSeq(seq []Sym) bool {
	for _, s := range seq {
		if !a.NullableSym(s) {
			return false
		}
	}
	return true
}

// computeFirst solves FIRST X = F′ X ∪ ⋃{FIRST Y : X R Y} over the
// nonterminals with one Digraph pass, where for each X → α s β with α
// nullable, a terminal s puts s in F′ X and a nonterminal s gives
// X R s.  Digraph calls the successor function once per node, when it
// opens the node and before any union into it, so the function also
// seeds F′ X there and carries the per-node checkpoint.
func (a *Analysis) computeFirst(bud *guard.Budget) error {
	g := a.G
	nterms := g.NumTerminals()
	// One arena backs every FIRST set: the family is allocated at once
	// over a shared universe, the profile the arena exists for.
	a.First = bitset.NewArena(g.NumSymbols(), nterms).Sets()
	for t := 0; t < nterms; t++ {
		a.First[t].Add(t)
	}
	first := a.First[nterms:] // nonterminal X's set is first[NtIndex(X)]
	var err error
	digraph.Run(len(first), func(x int, yield func(y int)) {
		if err = bud.Check(); err != nil {
			return
		}
		for _, pi := range g.prodsOf[x] {
			for _, s := range g.prods[pi].Rhs {
				if g.IsTerminal(s) {
					first[x].Add(int(s))
					break
				}
				y := g.NtIndex(s)
				yield(y)
				if !a.Nullable[y] {
					break
				}
			}
		}
	}, first)
	return err
}

// FirstOfSeq unions FIRST(seq) into out and reports whether seq is
// nullable.  This is the primitive canonical-LR(1) closure uses to
// compute FIRST(γ t) look-aheads.
func (a *Analysis) FirstOfSeq(seq []Sym, out *bitset.Set) bool {
	for _, s := range seq {
		out.Or(a.First[s])
		if !a.NullableSym(s) {
			return false
		}
	}
	return true
}

// Follow returns FOLLOW(nt) as a terminal bit set.  FOLLOW sets are
// computed once, on first use, over the augmented grammar, so
// FOLLOW(start) naturally contains $end via $accept → start $end.
// The result must not be modified.
func (a *Analysis) Follow(nt Sym) bitset.Set {
	if a.follow == nil {
		a.computeFollow()
	}
	return a.follow[a.G.NtIndex(nt)]
}

// computeFollow solves FOLLOW A = F′ A ∪ ⋃{FOLLOW B : A R B} with one
// Digraph pass, where for each B → α A β, F′ A holds FIRST β and A R B
// holds when β is nullable.
func (a *Analysis) computeFollow() {
	g := a.G
	follow := bitset.NewArena(g.NumNonterminals(), g.NumTerminals()).Sets()
	// F′: one right-to-left sweep per production, carrying FIRST β.
	rest := bitset.New(g.NumTerminals())
	for pi := range g.prods {
		rhs := g.prods[pi].Rhs
		rest.Clear()
		for j := len(rhs) - 1; j >= 0; j-- {
			s := rhs[j]
			if g.IsNonterminal(s) {
				follow[g.NtIndex(s)].Or(rest)
			}
			if !a.NullableSym(s) {
				rest.Clear()
			}
			rest.Or(a.First[s])
		}
	}
	// R: the nonterminals of each production's nullable tail, plus the
	// one just before the tail.
	rel := buildRows(len(follow), func(emit func(row, val int32)) {
		for pi := range g.prods {
			p := &g.prods[pi]
			for j := len(p.Rhs) - 1; j >= 0; j-- {
				s := p.Rhs[j]
				if g.IsNonterminal(s) {
					emit(int32(g.NtIndex(s)), int32(g.NtIndex(p.Lhs)))
				}
				if !a.NullableSym(s) {
					break
				}
			}
		}
	})
	digraph.Run(len(follow), func(x int, yield func(y int)) {
		for _, y := range rel.row(x) {
			yield(int(y))
		}
	}, follow)
	a.follow = follow
}

// TerminalSetNames formats a terminal bit set using the grammar's symbol
// names, e.g. "{NUM '+' $end}".
func (a *Analysis) TerminalSetNames(s bitset.Set) string {
	return TerminalSetNames(a.G, s)
}

// TerminalSetNames formats a terminal bit set using g's symbol names.
func TerminalSetNames(g *Grammar, s bitset.Set) string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(t int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(g.SymName(Sym(t)))
	})
	b.WriteByte('}')
	return b.String()
}
