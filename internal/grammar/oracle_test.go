package grammar_test

// Differential oracles for the linear front end: the chaotic fixpoint
// loops that computed nullability, FIRST, FOLLOW and the productive
// set before they moved onto the counter worklist and Digraph.  Like
// digraph.RunNaive they are deliberately simple sweeps to quiescence,
// kept only to check the engines against.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/grammars"
)

func oracleNullable(g *grammar.Grammar) []bool {
	nullable := make([]bool, g.NumNonterminals())
	nullSym := func(s grammar.Sym) bool { return g.IsNonterminal(s) && nullable[g.NtIndex(s)] }
	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions() {
			ni := g.NtIndex(p.Lhs)
			if nullable[ni] {
				continue
			}
			all := true
			for _, s := range p.Rhs {
				if !nullSym(s) {
					all = false
					break
				}
			}
			if all {
				nullable[ni] = true
				changed = true
			}
		}
	}
	return nullable
}

func oracleFirst(g *grammar.Grammar, an *grammar.Analysis) []bitset.Set {
	first := make([]bitset.Set, g.NumSymbols())
	for s := range first {
		first[s] = bitset.New(g.NumTerminals())
		if g.IsTerminal(grammar.Sym(s)) {
			first[s].Add(s)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions() {
			for _, s := range p.Rhs {
				if first[p.Lhs].Or(first[s]) {
					changed = true
				}
				if !an.NullableSym(s) {
					break
				}
			}
		}
	}
	return first
}

func oracleFollow(g *grammar.Grammar, an *grammar.Analysis) []bitset.Set {
	follow := make([]bitset.Set, g.NumNonterminals())
	for i := range follow {
		follow[i] = bitset.New(g.NumTerminals())
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions() {
			for j, s := range p.Rhs {
				if !g.IsNonterminal(s) {
					continue
				}
				fs := &follow[g.NtIndex(s)]
				restNullable := true
				for _, r := range p.Rhs[j+1:] {
					if fs.Or(an.First[r]) {
						changed = true
					}
					if !an.NullableSym(r) {
						restNullable = false
						break
					}
				}
				if restNullable && fs.Or(follow[g.NtIndex(p.Lhs)]) {
					changed = true
				}
			}
		}
	}
	return follow
}

// oracleCheckUseful is CheckUseful with the productive set swept to a
// fixpoint; reachability is the same work-list as the real one.
func oracleCheckUseful(g *grammar.Grammar) *grammar.Usefulness {
	u := &grammar.Usefulness{
		Productive: make([]bool, g.NumNonterminals()),
		Reachable:  make([]bool, g.NumSymbols()),
	}
	prodOK := func(p *grammar.Production) bool {
		for _, s := range p.Rhs {
			if g.IsNonterminal(s) && !u.Productive[g.NtIndex(s)] {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for i := range g.Productions() {
			p := g.Prod(i)
			if ni := g.NtIndex(p.Lhs); !u.Productive[ni] && prodOK(p) {
				u.Productive[ni] = true
				changed = true
			}
		}
	}
	u.Reachable[g.Accept()] = true
	u.Reachable[grammar.EOF] = true
	work := []grammar.Sym{g.Accept()}
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		for _, pi := range g.ProdsOf(a) {
			p := g.Prod(pi)
			if !prodOK(p) {
				continue
			}
			for _, s := range p.Rhs {
				if !u.Reachable[s] {
					u.Reachable[s] = true
					if g.IsNonterminal(s) {
						work = append(work, s)
					}
				}
			}
			if p.PrecSym != grammar.NoSym {
				u.Reachable[p.PrecSym] = true
			}
		}
	}
	return u
}

// checkAgainstOracles requires exact equality of every front-end fact
// with its chaotic oracle.
func checkAgainstOracles(t *testing.T, g *grammar.Grammar) {
	t.Helper()
	an := grammar.Analyze(g)
	if want := oracleNullable(g); !reflect.DeepEqual(an.Nullable, want) {
		t.Fatalf("%s: Nullable = %v, oracle %v", g.Name(), an.Nullable, want)
	}
	first := oracleFirst(g, an)
	for s := range first {
		if !an.First[s].Equal(first[s]) {
			t.Fatalf("%s: FIRST(%s) = %s, oracle %s", g.Name(), g.SymName(grammar.Sym(s)),
				an.TerminalSetNames(an.First[s]), an.TerminalSetNames(first[s]))
		}
	}
	follow := oracleFollow(g, an)
	for i := range follow {
		nt := g.NtSym(i)
		if got := an.Follow(nt); !got.Equal(follow[i]) {
			t.Fatalf("%s: FOLLOW(%s) = %s, oracle %s", g.Name(), g.SymName(nt),
				an.TerminalSetNames(got), an.TerminalSetNames(follow[i]))
		}
	}
	u, want := grammar.CheckUseful(g), oracleCheckUseful(g)
	if !reflect.DeepEqual(u, want) {
		t.Fatalf("%s: CheckUseful = %+v, oracle %+v", g.Name(), u, want)
	}
	if got, want := u.Useless(g), want.Useless(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Useless = %q, oracle %q", g.Name(), got, want)
	}
}

func TestFrontEndMatchesOraclesCorpus(t *testing.T) {
	useless := 0
	for _, e := range grammars.All() {
		checkAgainstOracles(t, grammars.MustLoad(e.Name))
		// Mutants drop and swap productions, so unlike the corpus they
		// carry unproductive and unreachable symbols.
		for i, src := range grammars.Mutations(e.Src, 1, 4) {
			g, err := grammar.Parse(fmt.Sprintf("%s-mutant-%d.y", e.Name, i), src)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracles(t, g)
			if len(grammar.CheckUseful(g).Useless(g)) > 0 {
				useless++
			}
		}
	}
	if useless == 0 {
		t.Error("no mutant has a useless symbol; CheckUseful went unexercised")
	}
}

func TestFrontEndMatchesOraclesRandom(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkAgainstOracles(t, grammars.Random(rng, 2+rng.Intn(12), 1+rng.Intn(6)))
	}
}

func TestFrontEndMatchesOraclesSynthetic(t *testing.T) {
	for _, n := range []int{8, 120} {
		for _, g := range []*grammar.Grammar{
			grammars.UnitChain(n), grammars.UnitChainReversed(n),
			grammars.NullableChain(n), grammars.ExprLevels(n),
		} {
			checkAgainstOracles(t, g)
		}
	}
}
