package grammar

import (
	"fmt"
	"sort"
	"strings"
)

// WriteYacc serialises the grammar back to the yacc-like text format
// accepted by Parse.  Parse(WriteYacc(g)) yields a grammar with the
// same productions, precedences and start symbol (symbol numbering may
// differ; it is an implementation detail of the builder).
func (g *Grammar) WriteYacc() string {
	var b strings.Builder

	// %token for identifier terminals without precedence ($end excluded;
	// every other terminal is written quoted, and quoted literals need
	// no declaration but harmlessly accept one — omit them for
	// idiomatic output).
	var plain []string
	for t := 1; t < g.numTerms; t++ {
		name := g.syms[t].name
		if name == "error" || g.syms[t].prec.Defined() || !isIdent(name) {
			continue
		}
		plain = append(plain, name)
	}
	if len(plain) > 0 {
		fmt.Fprintf(&b, "%%token %s\n", strings.Join(plain, " "))
	}

	// Precedence levels in ascending order.
	maxLevel := 0
	for t := 1; t < g.numTerms; t++ {
		if l := g.syms[t].prec.Level; l > maxLevel {
			maxLevel = l
		}
	}
	for lvl := 1; lvl <= maxLevel; lvl++ {
		var names []string
		assoc := AssocNone
		for t := 1; t < g.numTerms; t++ {
			if p := g.syms[t].prec; p.Level == lvl {
				names = append(names, g.yaccName(Sym(t)))
				assoc = p.Assoc
			}
		}
		if len(names) == 0 {
			// A level whose terminals were all removed by reduction:
			// keep a placeholder so levels stay aligned... not needed,
			// since relative order is all that matters.
			continue
		}
		dir := map[Assoc]string{
			AssocLeft: "%left", AssocRight: "%right",
			AssocNonassoc: "%nonassoc", AssocNone: "%precedence",
		}[assoc]
		fmt.Fprintf(&b, "%s %s\n", dir, strings.Join(names, " "))
	}

	if g.expectSR >= 0 {
		fmt.Fprintf(&b, "%%expect %d\n", g.expectSR)
	}
	if g.expectRR >= 0 {
		fmt.Fprintf(&b, "%%expect-rr %d\n", g.expectRR)
	}
	fmt.Fprintf(&b, "%%start %s\n%%%%\n", g.SymName(g.start))

	// Rules grouped by left-hand side, in first-production order.
	var ntOrder []Sym
	seen := map[Sym]bool{}
	for i := 1; i < len(g.prods); i++ {
		lhs := g.prods[i].Lhs
		if !seen[lhs] {
			seen[lhs] = true
			ntOrder = append(ntOrder, lhs)
		}
	}
	for _, lhs := range ntOrder {
		prods := g.ProdsOf(lhs)
		sorted := append([]int{}, prods...)
		sort.Ints(sorted)
		for k, pi := range sorted {
			p := &g.prods[pi]
			sep := "|"
			if k == 0 {
				fmt.Fprintf(&b, "%s :", g.SymName(lhs))
				sep = ""
			} else {
				b.WriteString("  " + sep)
			}
			if k == 0 {
				b.WriteString(" ")
			} else {
				b.WriteString(" ")
			}
			if len(p.Rhs) == 0 {
				b.WriteString("%empty")
			} else {
				parts := make([]string, len(p.Rhs))
				for i, s := range p.Rhs {
					parts[i] = g.yaccName(s)
				}
				b.WriteString(strings.Join(parts, " "))
			}
			// Emit %prec only when it was an explicit override (the
			// precedence symbol does not appear in the right-hand side).
			if p.PrecSym != NoSym && !rhsContains(p.Rhs, p.PrecSym) {
				fmt.Fprintf(&b, " %%prec %s", g.yaccName(p.PrecSym))
			}
			b.WriteString("\n")
		}
		b.WriteString("  ;\n")
	}
	return b.String()
}

// literalEscaper escapes what Parse's character-literal scanner decodes.
var literalEscaper = strings.NewReplacer(`\`, `\\`, `'`, `\'`, "\n", `\n`, "\t", `\t`)

// yaccName is how symbol s is spelled in yacc text: identifiers and
// already-quoted literals as they are, and any other terminal name
// (a builder-declared "(" or "+") quoted as a character literal, so
// Parse reads it back as one terminal.
func (g *Grammar) yaccName(s Sym) string {
	name := g.SymName(s)
	if int(s) >= g.numTerms || isIdent(name) || strings.HasPrefix(name, "'") {
		return name
	}
	return "'" + literalEscaper.Replace(name) + "'"
}

// isIdent reports whether name scans as a single identifier token.
func isIdent(name string) bool {
	for i, r := range name {
		if !isIdentChar(r) || (i == 0 && !isIdentStart(r)) {
			return false
		}
	}
	return name != ""
}
