package packed

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
)

func pack(t *testing.T, g *grammar.Grammar) (*lalrtable.Tables, *Tables) {
	t.Helper()
	a := lr0.New(g, nil)
	tbl := lalrtable.Build(a, core.Compute(a).Sets())
	p := Pack(tbl)
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return tbl, p
}

func TestPackedVerifiesOnCorpus(t *testing.T) {
	for _, e := range grammars.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			_, p := pack(t, grammars.MustLoad(e.Name))
			st := p.Stats()
			if st.Ratio >= 1.0 {
				t.Errorf("no compression achieved: %+v", st)
			}
			if st.PackedCells == 0 || st.FullCells == 0 {
				t.Errorf("degenerate stats: %+v", st)
			}
		})
	}
}

// parsePacked runs the LR algorithm on packed tables (recognition
// only), with yacc default-reduction semantics.
func parsePacked(p *Tables, g *grammar.Grammar, input []grammar.Sym) bool {
	states := []int32{0}
	toks := append(append([]grammar.Sym{}, input...), grammar.EOF)
	pos := 0
	for steps := 0; steps < 1_000_000; steps++ {
		state := states[len(states)-1]
		act := p.Action(int(state), toks[pos])
		switch act.Kind() {
		case lalrtable.Shift:
			states = append(states, int32(act.Target()))
			pos++
		case lalrtable.Reduce:
			prod := g.Prod(act.Target())
			states = states[:len(states)-len(prod.Rhs)]
			to := p.Goto(int(states[len(states)-1]), g.NtIndex(prod.Lhs))
			if to < 0 {
				return false
			}
			states = append(states, int32(to))
		case lalrtable.Accept:
			return true
		default:
			return false
		}
	}
	return false
}

// parseFull is the same loop over the uncompressed tables.
func parseFull(t *lalrtable.Tables, g *grammar.Grammar, input []grammar.Sym) bool {
	states := []int32{0}
	toks := append(append([]grammar.Sym{}, input...), grammar.EOF)
	pos := 0
	for steps := 0; steps < 1_000_000; steps++ {
		state := states[len(states)-1]
		act := t.Action[state][toks[pos]]
		switch act.Kind() {
		case lalrtable.Shift:
			states = append(states, int32(act.Target()))
			pos++
		case lalrtable.Reduce:
			prod := g.Prod(act.Target())
			states = states[:len(states)-len(prod.Rhs)]
			to := t.Auto.States[states[len(states)-1]].Goto(prod.Lhs)
			if to < 0 {
				return false
			}
			states = append(states, int32(to))
		case lalrtable.Accept:
			return true
		default:
			return false
		}
	}
	return false
}

// Language equality: packed and full tables accept exactly the same
// strings — valid sentences and random mutations thereof.
func TestPackedLanguageEquality(t *testing.T) {
	for _, name := range []string{"expr", "json", "pascal", "oberon"} {
		name := name
		t.Run(name, func(t *testing.T) {
			g := grammars.MustLoad(name)
			tbl, p := pack(t, g)
			sg, err := grammar.NewSentenceGenerator(g)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(77))
			for i := 0; i < 200; i++ {
				sent := sg.Generate(rng, 10)
				if len(sent) > 2000 {
					continue
				}
				if !parsePacked(p, g, sent) {
					t.Fatalf("packed rejects a valid sentence (len %d)", len(sent))
				}
				if !parseFull(tbl, g, sent) {
					t.Fatalf("full tables reject a valid sentence (len %d)", len(sent))
				}
				// Mutate: replace, delete or insert a random terminal.
				mut := append([]grammar.Sym{}, sent...)
				if len(mut) > 0 {
					switch rng.Intn(3) {
					case 0:
						mut[rng.Intn(len(mut))] = grammar.Sym(1 + rng.Intn(g.NumTerminals()-1))
					case 1:
						k := rng.Intn(len(mut))
						mut = append(mut[:k], mut[k+1:]...)
					default:
						k := rng.Intn(len(mut) + 1)
						mut = append(mut[:k], append([]grammar.Sym{grammar.Sym(1 + rng.Intn(g.NumTerminals()-1))}, mut[k:]...)...)
					}
				}
				if got, want := parsePacked(p, g, mut), parseFull(tbl, g, mut); got != want {
					t.Fatalf("acceptance mismatch on mutated input: packed %v, full %v", got, want)
				}
			}
		})
	}
}

func TestDefaultReductionChosen(t *testing.T) {
	g := grammars.MustLoad("expr")
	_, p := pack(t, g)
	n := 0
	for _, d := range p.DefaultReduce {
		if d >= 0 {
			n++
		}
	}
	if n == 0 {
		t.Error("no state received a default reduction")
	}
}

func TestPackedCompressionOnBigGrammar(t *testing.T) {
	g := grammars.MustLoad("csub")
	_, p := pack(t, g)
	st := p.Stats()
	if st.Ratio > 0.5 {
		t.Errorf("csub compression ratio %.2f; yacc-style packing should at least halve the table", st.Ratio)
	}
}

// Property: packing verifies on random grammars, and compresses once
// tables are big enough to have structure.
func TestPackedRandomGrammars(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		g := grammars.Random(rng, 6, 5)
		a := lr0.New(g, nil)
		if len(a.States) > 300 {
			continue
		}
		tbl := lalrtable.Build(a, core.Compute(a).Sets())
		p := Pack(tbl)
		if err := p.Verify(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, g)
		}
	}
}

// displaceRef is the naive reference first-fit (advance the base by one
// on every collision) the skip-list search must reproduce exactly.
func displaceRef(rows [][]entry, width int) (base []int32, next []lalrtable.Action, check []int32) {
	base = make([]int32, len(rows))
	total := width
	for _, r := range rows {
		total += len(r)
	}
	next = make([]lalrtable.Action, 0, total)
	check = make([]int32, 0, total)
	grow := func(n int) {
		for len(next) < n {
			next = append(next, 0)
			check = append(check, -1)
		}
	}
	for q, row := range rows {
		if len(row) == 0 {
			base[q] = 0
			continue
		}
		b := 0
	search:
		for {
			for _, e := range row {
				i := b + e.col
				if i < len(check) && check[i] >= 0 {
					b++
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
		}
	}
	grow(len(next) + width)
	return base, next, check
}

// TestDisplaceMatchesReference: the skip-list first-fit must choose the
// same bases and produce the same arrays as the naive scan on random
// sparse row sets.
func TestDisplaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		width := 2 + rng.Intn(40)
		rows := make([][]entry, 1+rng.Intn(60))
		for q := range rows {
			cols := rng.Perm(width)[:rng.Intn(width)]
			sort.Ints(cols)
			for _, c := range cols {
				rows[q] = append(rows[q], entry{col: c, act: lalrtable.Action(1 + rng.Intn(1000))})
			}
		}
		b1, n1, c1 := displace(rows, width)
		b2, n2, c2 := displaceRef(rows, width)
		if !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(n1, n2) || !reflect.DeepEqual(c1, c2) {
			t.Fatalf("trial %d: displace diverges from reference\nbase: %v vs %v", trial, b1, b2)
		}
	}
}

// TestDisplaceSkipsLongOccupiedRuns exercises the path-compressed
// chains: many dense rows packed back to back create long occupied runs
// the search must jump over, and the result must still equal the
// reference.
func TestDisplaceSkipsLongOccupiedRuns(t *testing.T) {
	const width = 16
	var rows [][]entry
	for q := 0; q < 200; q++ {
		var row []entry
		for c := 0; c < width; c++ {
			row = append(row, entry{col: c, act: lalrtable.Action(q*width + c + 1)})
		}
		rows = append(rows, row)
	}
	b1, n1, c1 := displace(rows, width)
	b2, n2, c2 := displaceRef(rows, width)
	if !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(n1, n2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("displace diverges from reference on dense back-to-back rows")
	}
}
