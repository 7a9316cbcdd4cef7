// Package runtime is the table-driven LR parse engine: it executes the
// ACTION/GOTO tables produced by lalrtable against a token stream,
// building parse trees or running semantic actions, with yacc-style
// error recovery through the reserved terminal named "error".
package runtime

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/grammar"
	"repro/internal/lalrtable"
)

// Token is one lexeme.  Sym must be a terminal of the grammar the tables
// were built for; the lexer signals end of input with Sym = grammar.EOF.
type Token struct {
	Sym  grammar.Sym
	Text string
	Line int
	Col  int
}

// Lexer supplies tokens.  After returning a token with Sym ==
// grammar.EOF, Next is not called again.
type Lexer interface {
	Next() (Token, error)
}

// Node is a parse-tree node.  Leaves (terminals) have Prod == -1 and a
// valid Tok; interior nodes carry the production that built them.
type Node struct {
	Sym      grammar.Sym
	Prod     int
	Children []*Node
	Tok      Token
}

// Leaf reports whether n is a terminal leaf.
func (n *Node) Leaf() bool { return n.Prod < 0 }

// Size returns the number of nodes in the tree.
func (n *Node) Size() int {
	total := 1
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// Terminals appends the leaf tokens of the tree in order.
func (n *Node) Terminals(out []Token) []Token {
	if n.Leaf() {
		return append(out, n.Tok)
	}
	for _, c := range n.Children {
		out = c.Terminals(out)
	}
	return out
}

// Dump renders the tree with indentation, using g for symbol names.
func (n *Node) Dump(g *grammar.Grammar) string {
	var b strings.Builder
	n.dump(g, &b, 0)
	return b.String()
}

func (n *Node) dump(g *grammar.Grammar, b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	if n.Leaf() {
		fmt.Fprintf(b, "%s %q\n", g.SymName(n.Sym), n.Tok.Text)
		return
	}
	fmt.Fprintf(b, "%s  (%s)\n", g.SymName(n.Sym), g.ProdString(n.Prod))
	for _, c := range n.Children {
		c.dump(g, b, depth+1)
	}
}

// SyntaxError describes one syntax error, with the offending token and
// the terminals the automaton would have accepted.
type SyntaxError struct {
	Tok      Token
	Expected []grammar.Sym
	names    []string
}

func (e *SyntaxError) Error() string {
	loc := ""
	if e.Tok.Line > 0 {
		loc = fmt.Sprintf("%d:%d: ", e.Tok.Line, e.Tok.Col)
	}
	what := e.Tok.Text
	if what == "" {
		what = "end of input"
	}
	if len(e.names) == 0 {
		return fmt.Sprintf("%ssyntax error at %q", loc, what)
	}
	return fmt.Sprintf("%ssyntax error at %q, expected %s", loc, what, strings.Join(e.names, " or "))
}

// ErrorList is the non-nil error returned when recovery consumed the
// whole input but syntax errors occurred.
type ErrorList []*SyntaxError

func (l ErrorList) Error() string {
	if len(l) == 1 {
		return l[0].Error()
	}
	parts := make([]string, len(l))
	for i, e := range l {
		parts[i] = e.Error()
	}
	return fmt.Sprintf("%d syntax errors:\n  %s", len(l), strings.Join(parts, "\n  "))
}

// Parser executes a parse table.
type Parser struct {
	Tables *lalrtable.Tables
	// MaxErrors bounds recovery attempts; past it the parse aborts.
	// Zero means 10.
	MaxErrors int
	// BuildTree controls whether Parse materialises the parse tree;
	// disabled by benchmarks that only measure table execution.
	BuildTree bool
	// Trace, when non-nil, receives one line per automaton action —
	// the equivalent of yacc's YYDEBUG output.
	Trace io.Writer
}

func (p *Parser) tracef(format string, args ...any) {
	if p.Trace != nil {
		fmt.Fprintf(p.Trace, format+"\n", args...)
	}
}

// New returns a tree-building parser for t.
func New(t *lalrtable.Tables) *Parser {
	return &Parser{Tables: t, BuildTree: true}
}

// Parse consumes lx to acceptance.  On success it returns the parse
// tree (nil if BuildTree is false).  If syntax errors were recovered via
// the "error" terminal, the tree is partial and the returned error is an
// ErrorList; unrecoverable errors return a single *SyntaxError.
func (p *Parser) Parse(lx Lexer) (*Node, error) {
	root, _, err := p.run(lx, nil)
	return root, err
}

// Reducer receives each reduction during Evaluate: prod is the
// production index and values holds the semantic values of its
// right-hand side.  Terminal shift values are produced by shift.
type Reducer func(prod int, values []any) (any, error)

// Evaluate parses while folding semantic values: shift maps each token
// to a value, reduce folds right-hand-side values.  It returns the start
// symbol's value.
func (p *Parser) Evaluate(lx Lexer, shift func(Token) any, reduce Reducer) (any, error) {
	_, v, err := p.run(lx, &actions{shift: shift, reduce: reduce})
	return v, err
}

type actions struct {
	shift  func(Token) any
	reduce Reducer
}

const errorName = "error"

func (p *Parser) run(lx Lexer, acts *actions) (*Node, any, error) {
	t := p.Tables
	g := t.G
	maxErrors := p.MaxErrors
	if maxErrors == 0 {
		maxErrors = 10
	}
	errSym := g.SymByName(errorName)

	var (
		states []int32
		nodes  []*Node
		values []any
		errs   ErrorList
	)
	states = append(states, 0)
	push := func(state int32, n *Node, v any) {
		states = append(states, state)
		if p.BuildTree {
			nodes = append(nodes, n)
		}
		if acts != nil {
			values = append(values, v)
		}
	}

	tok, err := lx.Next()
	if err != nil {
		return nil, nil, err
	}
	if err := p.checkToken(tok); err != nil {
		return nil, nil, err
	}

	for {
		state := states[len(states)-1]
		act := t.Action[state][tok.Sym]
		switch act.Kind() {
		case lalrtable.Shift:
			p.tracef("state %d: shift %q → state %d", state, tok.Text, act.Target())
			var v any
			if acts != nil && acts.shift != nil {
				v = acts.shift(tok)
			}
			var n *Node
			if p.BuildTree {
				n = &Node{Sym: tok.Sym, Prod: -1, Tok: tok}
			}
			push(int32(act.Target()), n, v)
			tok, err = lx.Next()
			if err != nil {
				return nil, nil, err
			}
			if err := p.checkToken(tok); err != nil {
				return nil, nil, err
			}

		case lalrtable.Reduce:
			prod := g.Prod(act.Target())
			p.tracef("state %d: reduce %s", state, g.ProdString(act.Target()))
			n := len(prod.Rhs)
			var node *Node
			var val any
			if p.BuildTree {
				children := make([]*Node, n)
				copy(children, nodes[len(nodes)-n:])
				nodes = nodes[:len(nodes)-n]
				node = &Node{Sym: prod.Lhs, Prod: prod.Index, Children: children}
			}
			if acts != nil {
				vs := make([]any, n)
				copy(vs, values[len(values)-n:])
				values = values[:len(values)-n]
				if acts.reduce != nil {
					v, rerr := acts.reduce(prod.Index, vs)
					if rerr != nil {
						return nil, nil, rerr
					}
					val = v
				}
			}
			states = states[:len(states)-n]
			top := states[len(states)-1]
			to := t.Auto.States[top].Goto(prod.Lhs)
			if to < 0 {
				return nil, nil, fmt.Errorf("runtime: corrupt table: no goto from %d on %s", top, g.SymName(prod.Lhs))
			}
			push(int32(to), node, val)

		case lalrtable.Accept:
			p.tracef("state %d: accept", state)
			var root *Node
			var val any
			if p.BuildTree {
				root = nodes[len(nodes)-1]
			}
			if acts != nil {
				val = values[len(values)-1]
			}
			if len(errs) > 0 {
				return root, val, errs
			}
			return root, val, nil

		case lalrtable.Error:
			p.tracef("state %d: error at %q", state, tok.Text)
			serr := &SyntaxError{Tok: tok, Expected: t.Expected(int(state))}
			for _, s := range serr.Expected {
				serr.names = append(serr.names, g.SymName(s))
			}
			errs = append(errs, serr)
			if errSym == grammar.NoSym || len(errs) >= maxErrors {
				return nil, nil, serr
			}
			// yacc-style recovery: pop states until one shifts "error".
			for len(states) > 0 {
				s := states[len(states)-1]
				if a := t.Action[s][errSym]; a.Kind() == lalrtable.Shift {
					break
				}
				states = states[:len(states)-1]
				if p.BuildTree && len(nodes) > 0 {
					nodes = nodes[:len(nodes)-1]
				}
				if acts != nil && len(values) > 0 {
					values = values[:len(values)-1]
				}
			}
			if len(states) == 0 {
				return nil, nil, errs
			}
			s := states[len(states)-1]
			a := t.Action[s][errSym]
			var n *Node
			if p.BuildTree {
				n = &Node{Sym: errSym, Prod: -1, Tok: Token{Sym: errSym, Text: "<error>", Line: tok.Line, Col: tok.Col}}
			}
			push(int32(a.Target()), n, nil)
			// Discard tokens until one is acceptable in the new state.
			for {
				state := states[len(states)-1]
				if t.Action[state][tok.Sym].Kind() != lalrtable.Error {
					break
				}
				if tok.Sym == grammar.EOF {
					return nil, nil, errs
				}
				tok, err = lx.Next()
				if err != nil {
					return nil, nil, err
				}
				if err := p.checkToken(tok); err != nil {
					return nil, nil, err
				}
			}
		}
	}
}

func (p *Parser) checkToken(tok Token) error {
	g := p.Tables.G
	if int(tok.Sym) < 0 || int(tok.Sym) >= g.NumSymbols() || !g.IsTerminal(tok.Sym) {
		return fmt.Errorf("runtime: lexer produced invalid terminal %d (%q)", tok.Sym, tok.Text)
	}
	return nil
}

// SliceLexer replays a fixed token slice, appending the $end token.
type SliceLexer struct {
	Tokens []Token
	pos    int
}

// Next implements Lexer.
func (l *SliceLexer) Next() (Token, error) {
	if l.pos >= len(l.Tokens) {
		return Token{Sym: grammar.EOF}, nil
	}
	t := l.Tokens[l.pos]
	l.pos++
	return t, nil
}

// SymLexer adapts a bare symbol sequence (as produced by the sentence
// generator) into a Lexer.
func SymLexer(g *grammar.Grammar, syms []grammar.Sym) *SliceLexer {
	toks := make([]Token, len(syms))
	for i, s := range syms {
		toks[i] = Token{Sym: s, Text: g.SymName(s)}
	}
	return &SliceLexer{Tokens: toks}
}
