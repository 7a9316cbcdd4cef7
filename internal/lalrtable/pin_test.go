package lalrtable_test

// Exact gates on the tables: the rendered table of every corpus grammar
// is pinned by its SHA-256, and the occupancy statistics of the
// cold-large synthetic families are pinned at their benchmark sizes.
// A change to table construction that moves a single entry fails here.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/guard"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
)

func tablesFor(g *grammar.Grammar) (*lr0.Automaton, *lalrtable.Tables) {
	a := lr0.New(g, nil)
	return a, lalrtable.Build(a, core.Compute(a).Sets())
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// tableStringSHA pins sha256(Tables.String()) per corpus grammar.
var tableStringSHA = map[string]string{
	"ada":           "a88e53a1c271b073ef641316970d6d673bd2c771b2d201dff66a20344ae2ce9f",
	"algol":         "d85fe328138827fbaf577784a5765caaef4fc098bf36d080ccf16434f199ab92",
	"assignment":    "e85a21380f8f4ff8b19edae3c999d28d571b219c59be2375627dfd6550b1d289",
	"csub":          "38d0a49bfd73f0ce9b2a33c0cd3ca0b801c71e29476a94e9cc74efaaa67b893f",
	"dangling-else": "e0f9188c600b2b017f05a9b3ea84ff99cea6f92fda91cf77ef02f3f83c658cc2",
	"expr":          "b5ddf6acec2ce8b9871dfe32605820dc557b5a5fcdff58235d41e4e607346f40",
	"expr-prec":     "5725044920ce879e958bf861af8e7b5c7ca9a2a54522627a26c89b867675eabc",
	"fortran":       "ff89050c282b789a2be0ecaf63e0ea5ab6773bc8e1d459a059de9d1972d7cfcb",
	"json":          "035fadd78a96be09796c49151756e8e72ae47cb7efb0d1a8e1aea42c2f7f86ff",
	"lua":           "ad86ff66940be09c945039daed3a14aaf7fae27ee6f9964d1d35f502e1c1c76c",
	"not-lalr":      "4b2c729c3be43607ac1b89dcf3f6f741e7002a5cb7d2a3ce6e7acb2dc3403c38",
	"oberon":        "8dba1d596607e81098d4f75062d12b04ab6fa7666a35ede85ffa32a986cddadd",
	"pascal":        "e0f0ba457b117a61b10083483150310e433f18801f564ccf7db6307440afd1d9",
	"pli":           "48b3602786118adf59bf3945e66d08a00942b42049a61f911575947b4ba3c05c",
	"sql":           "70a6e8e2467c89eaff8a1c3abe00d11da52cdfda18b7c9f47871880460faacbe",
}

func TestCorpusTableStringPinned(t *testing.T) {
	for _, e := range grammars.All() {
		_, tbl := tablesFor(grammars.MustLoad(e.Name))
		got := sha([]byte(tbl.String()))
		if want, ok := tableStringSHA[e.Name]; !ok || got != want {
			t.Errorf("%s: sha256(Tables.String()) = %q, want %q", e.Name, got, want)
		}
	}
	if len(tableStringSHA) != len(grammars.All()) {
		t.Errorf("%d pins for %d corpus grammars", len(tableStringSHA), len(grammars.All()))
	}
}

// statsPin is the part of Stats the table-compression experiments read.
type statsPin struct{ GotoEntries, ActionEntries, DefaultableStates int }

// largeFamilies are the cold-large synthetic grammars at the sizes the
// serving benchmark sends.
func largeFamilies() []*grammar.Grammar {
	return []*grammar.Grammar{
		grammars.UnitChain(1000), grammars.UnitChain(4000),
		grammars.UnitChainReversed(1000), grammars.UnitChainReversed(4000),
		grammars.NullableChain(100), grammars.NullableChain(150), grammars.NullableChain(200),
		grammars.ExprLevels(100), grammars.ExprLevels(200),
	}
}

var largeStats = map[string]statsPin{
	"expr-levels-100":     {5252, 11110, 202},
	"expr-levels-200":     {20502, 42210, 402},
	"nullable-chain-100":  {102, 10406, 203},
	"nullable-chain-150":  {152, 23106, 303},
	"nullable-chain-200":  {202, 40806, 403},
	"unit-chain-1000":     {1002, 1005, 1002},
	"unit-chain-4000":     {4002, 4005, 4002},
	"unit-chain-rev-1000": {1002, 1005, 1002},
	"unit-chain-rev-4000": {4002, 4005, 4002},
}

func TestLargeFamilyStatsPinned(t *testing.T) {
	for _, g := range largeFamilies() {
		_, tbl := tablesFor(g)
		st := tbl.Stats()
		got := statsPin{st.GotoEntries, st.ActionEntries, st.DefaultableStates}
		if want, ok := largeStats[g.Name()]; !ok || got != want {
			t.Errorf("%s: stats = %#v, want %#v", g.Name(), got, want)
		}
	}
}

// TestMaxTableEntriesExact: the table-entry count is every transition
// (a shift, accept or GOTO entry) plus every look-ahead placement of a
// reduction, and a limit trips exactly when that total exceeds it —
// the last state's row included.
func TestMaxTableEntriesExact(t *testing.T) {
	for _, name := range []string{"expr", "dangling-else", "ada"} {
		g := grammars.MustLoad(name)
		a := lr0.New(g, nil)
		sets := core.Compute(a).Sets()
		total := 0
		for q, s := range a.States {
			total += len(s.Transitions)
			for i, pi := range s.Reductions {
				if pi != 0 {
					total += sets[q][i].Len()
				}
			}
		}
		build := func(limit int) error {
			bud := guard.New(nil, guard.Limits{MaxTableEntries: limit}, nil)
			_, err := lalrtable.BuildBudgeted(a, sets, nil, bud)
			return err
		}
		if err := build(total); err != nil {
			t.Errorf("%s: limit %d = total entries tripped: %v", name, total, err)
		}
		var lim *guard.ErrLimitExceeded
		if err := build(total - 1); !errors.As(err, &lim) || lim.Resource != guard.ResTableEntries {
			t.Errorf("%s: limit %d = total-1 gave %v, want a %s trip", name, total-1, err, guard.ResTableEntries)
		}
	}
}
