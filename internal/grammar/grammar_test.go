package grammar

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// exprSrc is the canonical ambiguous expression grammar with yacc
// precedence declarations.
const exprSrc = `
%token NUM
%left '+' '-'
%left '*' '/'
%right UMINUS
%%
expr : expr '+' expr
     | expr '-' expr
     | expr '*' expr
     | expr '/' expr
     | '-' expr %prec UMINUS
     | '(' expr ')'
     | NUM
     ;
`

func mustExpr(t *testing.T) *Grammar {
	t.Helper()
	g, err := Parse("expr.y", exprSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return g
}

func TestParseExprGrammar(t *testing.T) {
	g := mustExpr(t)
	if got, want := g.NumTerminals(), 9; got != want { // $end NUM + - * / UMINUS ( )
		t.Errorf("NumTerminals = %d, want %d", got, want)
	}
	if got, want := g.NumNonterminals(), 2; got != want { // $accept expr
		t.Errorf("NumNonterminals = %d, want %d", got, want)
	}
	if got, want := len(g.Productions()), 8; got != want {
		t.Errorf("len(prods) = %d, want %d", got, want)
	}
	// Production 0 is the augmentation.
	p0 := g.Prod(0)
	if p0.Lhs != g.Accept() || len(p0.Rhs) != 2 || p0.Rhs[0] != g.Start() || p0.Rhs[1] != EOF {
		t.Errorf("augmented production wrong: %s", g.ProdString(0))
	}
	if g.SymName(EOF) != "$end" || g.SymName(g.Accept()) != "$accept" {
		t.Error("bookkeeping symbol names wrong")
	}
	if g.SymName(g.Start()) != "expr" {
		t.Errorf("start = %q, want expr", g.SymName(g.Start()))
	}
}

func TestPrecedenceResolution(t *testing.T) {
	g := mustExpr(t)
	plus := g.SymByName("'+'")
	times := g.SymByName("'*'")
	um := g.SymByName("UMINUS")
	if plus == NoSym || times == NoSym || um == NoSym {
		t.Fatal("operator terminals missing")
	}
	pp, tp, up := g.TermPrec(plus), g.TermPrec(times), g.TermPrec(um)
	if !(pp.Level < tp.Level && tp.Level < up.Level) {
		t.Errorf("precedence levels out of order: + %d * %d UMINUS %d", pp.Level, tp.Level, up.Level)
	}
	if pp.Assoc != AssocLeft || up.Assoc != AssocRight {
		t.Errorf("assoc wrong: + %v UMINUS %v", pp.Assoc, up.Assoc)
	}
	// Production precedences: expr→expr '+' expr gets '+''s precedence;
	// the unary rule gets UMINUS via %prec.
	var plusProd, unaryProd *Production
	for i := range g.Productions() {
		p := g.Prod(i)
		if len(p.Rhs) == 3 && p.Rhs[1] == plus {
			plusProd = p
		}
		if len(p.Rhs) == 2 && p.Rhs[0] == g.SymByName("'-'") {
			unaryProd = p
		}
	}
	if plusProd == nil || unaryProd == nil {
		t.Fatal("expected productions missing")
	}
	if plusProd.Prec != pp {
		t.Errorf("'+' production precedence = %+v, want %+v", plusProd.Prec, pp)
	}
	if unaryProd.Prec != up || unaryProd.PrecSym != um {
		t.Errorf("unary production precedence = %+v (sym %s), want UMINUS", unaryProd.Prec, g.SymName(unaryProd.PrecSym))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"no separator", "%token A\n", "missing %%"},
		{"undeclared symbol", "%%\ns : t X ;\nt : 'a' ;\n", `"X" is neither`},
		{"terminal as lhs", "%token a\n%%\na : 'x' ;\n", "used as a rule left-hand side"},
		{"unknown directive", "%frob A\n%%\ns : 'a' ;\n", "unknown directive"},
		{"unterminated comment", "/* hi\n%%\ns : 'a' ;\n", "unterminated /*"},
		{"unterminated literal", "%%\ns : 'a ;\n", "unterminated character literal"},
		{"empty literal", "%%\ns : '' ;\n", "empty character literal"},
		{"bad start", "%start zzz\n%%\ns : 'a' ;\n", `start symbol "zzz"`},
		{"empty nonempty", "%%\ns : %empty 'a' ;\n", "%empty alternative must be empty"},
		{"prec undeclared level", "%token U\n%%\ns : 'a' %prec U ;\n", "no declared precedence"},
		{"prec nonterminal", "%%\ns : 'a' %prec s ;\n", "not a terminal"},
		{"double precedence", "%left A\n%right A\n%%\ns : A ;\n", "precedence redeclared"},
		{"stray percent", "%%\ns : 'a' % ;\n", "stray %"},
		{"no rules", "%token A\n%%\n", "no rules"},
		{"bad escape", `%%` + "\ns : '\\q' ;\n", "unknown escape"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("t.y", c.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestParseOptionalSemicolons(t *testing.T) {
	g, err := Parse("t.y", `
%%
s : a b
a : 'x'
b : 'y' | %empty
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := len(g.Productions()); got != 5 {
		t.Errorf("prods = %d, want 5\n%s", got, g)
	}
}

func TestParseEscapesAndComments(t *testing.T) {
	g, err := Parse("t.y", `
// line comment
# hash comment
%token A /* inline */ B
%%
s : A '\n' B '\'' '\\' '\t' ; // trailing
%%
ignored trailing section
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for _, name := range []string{"'\n'", "'''", "'\\'", "'\t'"} {
		if g.SymByName(name) == NoSym {
			t.Errorf("escaped literal %q missing", name)
		}
	}
}

func TestNullableFirstFollow(t *testing.T) {
	// Grune & Jacobs-style grammar with ε and chained nullables:
	//   S → A B 'c' ;  A → 'a' | ε ;  B → 'b' | ε
	g, err := Parse("t.y", `
%%
s : a b 'c' ;
a : 'a' | ;
b : 'b' | ;
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	an := Analyze(g)
	for _, c := range []struct {
		sym      string
		nullable bool
	}{{"s", false}, {"a", true}, {"b", true}, {"$accept", false}} {
		if got := an.NullableSym(g.SymByName(c.sym)); got != c.nullable {
			t.Errorf("nullable(%s) = %v, want %v", c.sym, got, c.nullable)
		}
	}
	first := func(name string) string {
		return an.TerminalSetNames(an.First[g.SymByName(name)])
	}
	if got := first("s"); got != "{'a' 'b' 'c'}" {
		t.Errorf("FIRST(s) = %s", got)
	}
	if got := first("a"); got != "{'a'}" {
		t.Errorf("FIRST(a) = %s", got)
	}
	fol := func(name string) string {
		return an.TerminalSetNames(an.Follow(g.SymByName(name)))
	}
	if got := fol("s"); got != "{$end}" {
		t.Errorf("FOLLOW(s) = %s", got)
	}
	if got := fol("a"); got != "{'b' 'c'}" {
		t.Errorf("FOLLOW(a) = %s", got)
	}
	if got := fol("b"); got != "{'c'}" {
		t.Errorf("FOLLOW(b) = %s", got)
	}
}

func TestFirstOfSeq(t *testing.T) {
	g, err := Parse("t.y", `
%%
s : a b ;
a : 'a' | ;
b : 'b' ;
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	an := Analyze(g)
	seq := []Sym{g.SymByName("a"), g.SymByName("b")}
	out := newTermSet(g)
	if nullable := an.FirstOfSeq(seq, &out); nullable {
		t.Error("a b should not be nullable")
	}
	if got := an.TerminalSetNames(out); got != "{'a' 'b'}" {
		t.Errorf("FIRST(a b) = %s", got)
	}
	out2 := newTermSet(g)
	if nullable := an.FirstOfSeq([]Sym{g.SymByName("a")}, &out2); !nullable {
		t.Error("a should be nullable")
	}
}

func TestReduce(t *testing.T) {
	// B is unproductive; D is unreachable; C reachable only through B.
	g, err := Parse("t.y", `
%%
s : a | b ;
a : 'x' ;
b : b 'y' c ;
c : 'z' ;
d : 'w' ;
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	u := CheckUseful(g)
	useless := u.Useless(g)
	joined := strings.Join(useless, " ")
	for _, want := range []string{"b", "c", "d"} {
		if !strings.Contains(joined, want) {
			t.Errorf("useless list %v missing %q", useless, want)
		}
	}
	rg, err := Reduce(g)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if rg.SymByName("b") != NoSym || rg.SymByName("d") != NoSym {
		t.Errorf("reduced grammar still has useless nonterminals:\n%s", rg)
	}
	if got := len(rg.Productions()); got != 3 { // $accept, s→a, a→'x'
		t.Errorf("reduced prods = %d, want 3\n%s", got, rg)
	}
	// Reducing an already-reduced grammar returns it unchanged.
	rg2, err := Reduce(rg)
	if err != nil {
		t.Fatalf("Reduce(reduced): %v", err)
	}
	if rg2 != rg {
		t.Error("Reduce of reduced grammar should return the same object")
	}
}

func TestReduceKeepsPrecPseudoToken(t *testing.T) {
	g := mustExpr(t)
	rg, err := Reduce(g)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if rg != g {
		t.Errorf("expression grammar should already be reduced; useless: %v", CheckUseful(g).Useless(g))
	}
}

func TestReduceUnproductiveStart(t *testing.T) {
	_, err := Parse("t.y", `
%%
s : s 'a' ;
`)
	if err != nil {
		t.Fatal("Parse should succeed; reduction is separate")
	}
	g := MustParse("t.y", "%%\ns : s 'a' ;\n")
	if _, err := Reduce(g); err == nil || !strings.Contains(err.Error(), "derives no terminal string") {
		t.Errorf("Reduce err = %v, want unproductive start", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("g").Build(); err == nil {
		t.Error("empty builder should fail")
	}
	_, err := NewBuilder("g").Terminal("a").Rule("a", "x").Rule("x", "a").Build()
	if err == nil || !strings.Contains(err.Error(), "left-hand side") {
		t.Errorf("terminal-as-lhs err = %v", err)
	}
	_, err = NewBuilder("g").Rule("s", "t").Rule("t").Start("nope").Build()
	if err == nil || !strings.Contains(err.Error(), "no rules") {
		t.Errorf("bad start err = %v", err)
	}
}

func TestGrammarStringAndLookups(t *testing.T) {
	g := mustExpr(t)
	s := g.String()
	if !strings.Contains(s, "$accept → expr $end") {
		t.Errorf("String missing augmentation:\n%s", s)
	}
	if !strings.Contains(s, "expr → expr '+' expr") {
		t.Errorf("String missing production:\n%s", s)
	}
	if g.SymName(NoSym) != "<none>" {
		t.Error("SymName(NoSym)")
	}
	if len(g.Terminals()) != g.NumTerminals() || len(g.Nonterminals()) != g.NumNonterminals() {
		t.Error("Terminals/Nonterminals length mismatch")
	}
	if g.RhsNames(nil) != "ε" {
		t.Error("empty RhsNames should be ε")
	}
	names := g.SymbolNames()
	if names[0] != "$end" {
		t.Errorf("SymbolNames[0] = %q", names[0])
	}
}

// TestTerminalSetNamesLarge pins TerminalSetNames' exact output on the
// empty set and on a 400-terminal set: "{", the names in ascending
// terminal order separated by single spaces, "}".
func TestTerminalSetNamesLarge(t *testing.T) {
	b := NewBuilder("wide")
	var rhs []string
	for i := 0; i < 399; i++ {
		name := fmt.Sprintf("t%d", i)
		b.Terminal(name)
		rhs = append(rhs, name)
	}
	g, err := b.Rule("s", rhs...).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTerminals() != 400 {
		t.Fatalf("NumTerminals = %d, want 400", g.NumTerminals())
	}
	all := bitset.New(g.NumTerminals())
	var want []string
	for i := 0; i < g.NumTerminals(); i++ {
		all.Add(i)
		want = append(want, g.SymName(Sym(i)))
	}
	if got, w := TerminalSetNames(g, all), "{"+strings.Join(want, " ")+"}"; got != w {
		t.Errorf("400-terminal set:\n got %.80q…\nwant %.80q…", got, w)
	}
	if got := TerminalSetNames(g, bitset.New(g.NumTerminals())); got != "{}" {
		t.Errorf("empty set = %q, want {}", got)
	}
}
