package lalrtable

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/lr0"
)

func build(t *testing.T, src string) (*lr0.Automaton, *Tables) {
	t.Helper()
	g := grammar.MustParse("t.y", src)
	a := lr0.New(g, nil)
	return a, Build(a, core.Compute(a).Sets())
}

const exprSrc = `
%token NUM
%left '+' '-'
%left '*' '/'
%right UMINUS
%%
e : e '+' e
  | e '-' e
  | e '*' e
  | e '/' e
  | '-' e %prec UMINUS
  | '(' e ')'
  | NUM
  ;
`

func TestPrecedenceResolvesAllConflicts(t *testing.T) {
	_, tbl := build(t, exprSrc)
	if !tbl.Adequate() {
		sr, rr := tbl.Unresolved()
		t.Fatalf("expr grammar should be adequate after precedence; sr=%d rr=%d\n%s",
			sr, rr, tbl.ConflictReport())
	}
	if len(tbl.Conflicts) == 0 {
		t.Fatal("the ambiguous expression grammar must have (resolved) conflicts")
	}
	for _, c := range tbl.Conflicts {
		if c.Resolution == DefaultShift || c.Resolution == DefaultEarlyRule {
			t.Errorf("unresolved conflict: %s", tbl.ConflictString(c))
		}
	}
}

func TestAssociativityDirections(t *testing.T) {
	a, tbl := build(t, exprSrc)
	g := a.G
	plus, times := g.SymByName("'+'"), g.SymByName("'*'")
	num := g.SymByName("NUM")
	// State after "e + e": on '+' must reduce (left assoc), on '*' must
	// shift (higher precedence).
	q := a.WalkString(0, []grammar.Sym{g.SymByName("e"), plus, g.SymByName("e")})
	if q < 0 {
		t.Fatal("walk failed")
	}
	if got := tbl.Action[q][plus].Kind(); got != Reduce {
		t.Errorf("after e+e on '+': %v, want reduce (left assoc)", tbl.Action[q][plus])
	}
	if got := tbl.Action[q][times].Kind(); got != Shift {
		t.Errorf("after e+e on '*': %v, want shift (precedence)", tbl.Action[q][times])
	}
	// State after "e * e": on '+' reduce (lower), on '*' reduce (left).
	q = a.WalkString(0, []grammar.Sym{g.SymByName("e"), times, g.SymByName("e")})
	if got := tbl.Action[q][plus].Kind(); got != Reduce {
		t.Errorf("after e*e on '+': %v, want reduce", tbl.Action[q][plus])
	}
	// Unary minus binds tightest: after "- e", '+' must reduce.
	q = a.WalkString(0, []grammar.Sym{g.SymByName("'-'"), g.SymByName("e")})
	if got := tbl.Action[q][plus].Kind(); got != Reduce {
		t.Errorf("after -e on '+': %v, want reduce (UMINUS %%prec)", tbl.Action[q][plus])
	}
	_ = num
}

func TestDanglingElseDefaultsToShift(t *testing.T) {
	a, tbl := build(t, `
%token IF THEN ELSE other
%%
stmt : IF 'c' THEN stmt
     | IF 'c' THEN stmt ELSE stmt
     | other ;
`)
	sr, rr := tbl.Unresolved()
	if sr != 1 || rr != 0 {
		t.Fatalf("dangling else: sr=%d rr=%d, want 1/0\n%s", sr, rr, tbl.ConflictReport())
	}
	// The conflicted entry must be a shift on ELSE.
	g := a.G
	found := false
	for _, c := range tbl.Conflicts {
		if c.Resolution == DefaultShift {
			found = true
			if c.Terminal != g.SymByName("ELSE") {
				t.Errorf("conflict terminal = %s, want ELSE", g.SymName(c.Terminal))
			}
			if tbl.Action[c.State][c.Terminal].Kind() != Shift {
				t.Error("default resolution must leave the shift in place")
			}
		}
	}
	if !found {
		t.Fatal("no DefaultShift conflict recorded")
	}
	if tbl.Adequate() {
		t.Error("dangling else grammar is not adequate without precedence")
	}
}

func TestNonassocPoisonsEntry(t *testing.T) {
	a, tbl := build(t, `
%token NUM
%nonassoc '<'
%%
e : e '<' e | NUM ;
`)
	g := a.G
	lt := g.SymByName("'<'")
	q := a.WalkString(0, []grammar.Sym{g.SymByName("e"), lt, g.SymByName("e")})
	if q < 0 {
		t.Fatal("walk failed")
	}
	if got := tbl.Action[q][lt].Kind(); got != Error {
		t.Errorf("after e<e on '<': %v, want error (%%nonassoc)", tbl.Action[q][lt])
	}
	resolvedErr := 0
	for _, c := range tbl.Conflicts {
		if c.Resolution == ResolvedError {
			resolvedErr++
		}
	}
	if resolvedErr == 0 {
		t.Error("expected a ResolvedError conflict")
	}
	if !tbl.Adequate() {
		t.Error("nonassoc resolution should not count as unresolved")
	}
}

func TestReduceReduceEarlierRuleWins(t *testing.T) {
	a, tbl := build(t, `
%%
s : a | b ;
a : 'x' ;
b : 'x' ;
`)
	sr, rr := tbl.Unresolved()
	if sr != 0 || rr != 1 {
		t.Fatalf("sr=%d rr=%d, want 0/1", sr, rr)
	}
	g := a.G
	q := a.States[0].Goto(g.SymByName("'x'"))
	act := tbl.Action[q][grammar.EOF]
	if act.Kind() != Reduce {
		t.Fatalf("action = %v, want reduce", act)
	}
	if got := g.ProdString(act.Target()); got != "a → 'x'" {
		t.Errorf("winning production = %s, want a → 'x' (earlier rule)", got)
	}
}

func TestAcceptConflictDoesNotPanic(t *testing.T) {
	_, tbl := build(t, `
%%
s : s | 'x' ;
`)
	sr, _ := tbl.Unresolved()
	if sr == 0 {
		t.Error("unit-cycle grammar should report a conflict against accept")
	}
	if tbl.AcceptState < 0 {
		t.Error("accept state not identified")
	}
	q := tbl.AcceptState
	if tbl.Action[q][grammar.EOF].Kind() != Accept {
		t.Error("accept action must survive the conflict")
	}
}

func TestAcceptPlacement(t *testing.T) {
	a, tbl := build(t, exprSrc)
	if tbl.AcceptState < 0 {
		t.Fatal("no accept state")
	}
	// The accept state is GOTO(0, start).
	want := a.States[0].Goto(a.G.Start())
	if tbl.AcceptState != want {
		t.Errorf("accept state = %d, want %d", tbl.AcceptState, want)
	}
	n := 0
	for q := 0; q < tbl.NumStates; q++ {
		for _, act := range tbl.Action[q] {
			if act.Kind() == Accept {
				n++
			}
		}
	}
	if n != 1 {
		t.Errorf("accept entries = %d, want exactly 1", n)
	}
}

func TestStatsAndRendering(t *testing.T) {
	_, tbl := build(t, exprSrc)
	st := tbl.Stats()
	if st.States != tbl.NumStates || st.ActionEntries == 0 || st.GotoEntries == 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
	if st.ActionEntries != st.ShiftEntries+st.ReduceEntries {
		t.Errorf("entry accounting broken: %+v", st)
	}
	s := tbl.String()
	if !strings.Contains(s, "acc") {
		t.Error("table rendering missing accept")
	}
	if !strings.Contains(s, "NUM") {
		t.Error("table rendering missing terminal header")
	}
	exp := tbl.Expected(0)
	if len(exp) == 0 {
		t.Error("state 0 expects at least one terminal")
	}
	for _, sym := range exp {
		if tbl.Action[0][sym].Kind() == Error {
			t.Error("Expected returned an error entry")
		}
	}
}

func TestActionEncoding(t *testing.T) {
	cases := []struct {
		a    Action
		kind ActionKind
		tgt  int
		str  string
	}{
		{MakeShift(5), Shift, 5, "s5"},
		{MakeReduce(3), Reduce, 3, "r3"},
		{MakeAccept(), Accept, 0, "acc"},
		{Action(0), Error, 0, "."},
		{MakeShift(0), Shift, 0, "s0"},
		{MakeReduce(1 << 20), Reduce, 1 << 20, "r1048576"},
	}
	for _, c := range cases {
		if c.a.Kind() != c.kind || (c.kind != Error && c.kind != Accept && c.a.Target() != c.tgt) {
			t.Errorf("encoding broken for %v", c.a)
		}
		if c.a.String() != c.str {
			t.Errorf("String = %q, want %q", c.a.String(), c.str)
		}
	}
}

// Property: Build is total and structurally sound on random grammars —
// every shift target is a valid state, every reduce target a valid
// production, at most one accept entry, and conflict accounting is
// consistent.
func TestBuildRandomGrammarInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 150; trial++ {
		g := randomGrammar(rng)
		a := lr0.New(g, nil)
		if len(a.States) > 300 {
			continue
		}
		tbl := Build(a, core.Compute(a).Sets())
		accepts := 0
		for q := 0; q < tbl.NumStates; q++ {
			for _, act := range tbl.Action[q] {
				switch act.Kind() {
				case Shift:
					if act.Target() < 0 || act.Target() >= tbl.NumStates {
						t.Fatalf("trial %d: shift target %d out of range", trial, act.Target())
					}
				case Reduce:
					if act.Target() <= 0 || act.Target() >= len(g.Productions()) {
						t.Fatalf("trial %d: reduce target %d out of range", trial, act.Target())
					}
				case Accept:
					accepts++
				}
			}
			for _, tr := range tbl.Auto.States[q].Transitions {
				if int(tr.To) >= tbl.NumStates {
					t.Fatalf("trial %d: goto target out of range", trial)
				}
			}
		}
		if accepts != 1 {
			t.Fatalf("trial %d: %d accept entries", trial, accepts)
		}
		sr, rr := tbl.Unresolved()
		if sr+rr > len(tbl.Conflicts) {
			t.Fatalf("trial %d: unresolved exceeds recorded conflicts", trial)
		}
	}
}

// randomGrammar builds a reduced random grammar for property tests.
func randomGrammar(rng *rand.Rand) *grammar.Grammar {
	nNts, nTerms := 2+rng.Intn(5), 2+rng.Intn(4)
	b := grammar.NewBuilder("rand")
	terms := make([]string, nTerms)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%d", i)
		b.Terminal(terms[i])
	}
	nts := make([]string, nNts)
	for i := range nts {
		nts[i] = fmt.Sprintf("N%d", i)
	}
	for _, nt := range nts {
		for a, n := 0, 1+rng.Intn(3); a < n; a++ {
			rhs := make([]string, rng.Intn(4))
			for k := range rhs {
				if rng.Intn(2) == 0 {
					rhs[k] = terms[rng.Intn(nTerms)]
				} else {
					rhs[k] = nts[rng.Intn(nNts)]
				}
			}
			b.Rule(nt, rhs...)
		}
		b.Rule(nt, terms[rng.Intn(nTerms)])
	}
	b.Start(nts[0])
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	rg, err := grammar.Reduce(g)
	if err != nil {
		panic(err)
	}
	return rg
}

func TestResolutionStringsAndReport(t *testing.T) {
	for r, want := range map[Resolution]string{
		ResolvedShift:    "shift (precedence)",
		ResolvedReduce:   "reduce (precedence)",
		ResolvedError:    "error (%nonassoc)",
		DefaultShift:     "shift (default)",
		DefaultEarlyRule: "earlier rule (default)",
	} {
		if got := r.String(); got != want {
			t.Errorf("Resolution(%d).String() = %q, want %q", r, got, want)
		}
	}
	// ConflictReport renders both conflict kinds, sorted by state.
	_, tbl := build(t, `
%token IF THEN ELSE other
%%
stmt : IF 'c' THEN stmt
     | IF 'c' THEN stmt ELSE stmt
     | other
     | dup ;
dup : other ;
`)
	rep := tbl.ConflictReport()
	if !strings.Contains(rep, "shift/reduce") || !strings.Contains(rep, "reduce/reduce") {
		t.Errorf("report missing kinds:\n%s", rep)
	}
	if !strings.Contains(rep, "state ") || !strings.Contains(rep, "token ELSE") {
		t.Errorf("report formatting:\n%s", rep)
	}
}
