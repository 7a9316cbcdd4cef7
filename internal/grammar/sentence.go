package grammar

import (
	"fmt"
	"math/rand"
)

// SentenceGenerator produces random sentences of a grammar's language by
// random leftmost derivation.  It is the test oracle for the runtime
// parser: every generated sentence must be accepted by every conflict-free
// parse table built for the grammar.
type SentenceGenerator struct {
	g *Grammar
	// minHeight[nt] is the height of the shortest derivation tree for the
	// nonterminal; used to force termination when the budget runs out.
	minHeight []int
	// shortest[nt] is a production index achieving minHeight.
	shortest []int
}

// NewSentenceGenerator prepares a generator for g.  It fails if some
// nonterminal derives no terminal string (unreduced grammar).
func NewSentenceGenerator(g *Grammar) (*SentenceGenerator, error) {
	n := g.NumNonterminals()
	const inf = int(1e9)
	sg := &SentenceGenerator{
		g:         g,
		minHeight: make([]int, n),
		shortest:  make([]int, n),
	}
	for i := range sg.minHeight {
		sg.minHeight[i] = inf
		sg.shortest[i] = -1
	}
	// Bellman–Ford rounds: after round k every minimum height ≤ k is
	// final, and no minimum height exceeds the nonterminal count.
	//guardloop:ok — at most NumNonterminals()+1 rounds; lalrgen and tests only, never a request.
	for changed := true; changed; {
		changed = false
		for pi := range g.prods {
			p := &g.prods[pi]
			h := 0
			ok := true
			for _, s := range p.Rhs {
				if g.IsNonterminal(s) {
					hs := sg.minHeight[g.NtIndex(s)]
					if hs == inf {
						ok = false
						break
					}
					if hs > h {
						h = hs
					}
				}
			}
			if !ok {
				continue
			}
			ni := g.NtIndex(p.Lhs)
			if h+1 < sg.minHeight[ni] {
				sg.minHeight[ni] = h + 1
				sg.shortest[ni] = pi
				changed = true
			}
		}
	}
	for i, h := range sg.minHeight {
		if h == inf {
			return nil, fmt.Errorf("nonterminal %q derives no terminal string", g.SymName(g.NtSym(i)))
		}
	}
	return sg, nil
}

// Generate returns a random sentence (terminal symbols, without the
// trailing $end) derived from the start symbol.  budget bounds the
// remaining tree height: while budget allows, productions are chosen
// uniformly; once the height budget is hit, the shortest production is
// forced, guaranteeing termination.
func (sg *SentenceGenerator) Generate(rng *rand.Rand, budget int) []Sym {
	var out []Sym
	sg.expand(rng, sg.g.Start(), budget, &out)
	return out
}

func (sg *SentenceGenerator) expand(rng *rand.Rand, nt Sym, budget int, out *[]Sym) {
	ni := sg.g.NtIndex(nt)
	var pi int
	if budget <= sg.minHeight[ni] {
		pi = sg.shortest[ni]
	} else {
		ps := sg.g.ProdsOf(nt)
		pi = ps[rng.Intn(len(ps))]
	}
	p := &sg.g.prods[pi]
	for _, s := range p.Rhs {
		if s == EOF {
			continue // only in the augmented production
		}
		if sg.g.IsTerminal(s) {
			*out = append(*out, s)
		} else {
			sg.expand(rng, s, budget-1, out)
		}
	}
}
