package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cliguard"
	"repro/internal/core"
	"repro/internal/digraph"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lr0"
)

// The timing-free experiment tables must render all corpus grammars and
// their structural columns.
func TestStructuralTables(t *testing.T) {
	out := tableI(true)
	for _, want := range []string{"pascal", "ada", "LR1 states", "state ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
	out = tableII(true)
	for _, want := range []string{"includes", "lookback", "inc cyclic"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q:\n%s", want, out)
		}
	}
	out = tableIV(true)
	for _, want := range []string{"SLR sr/rr", "LALR sr/rr", "LR1 sr/rr", "dangling-else"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table IV missing %q:\n%s", want, out)
		}
	}
	out = tableV(true)
	if !strings.Contains(out, "ratio") || strings.Contains(out, "verification failed") {
		t.Errorf("Table V malformed:\n%s", out)
	}
}

// The timing experiments run end-to-end in quick mode.  They are slow,
// so -short skips them.
func TestTimedExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps skipped in -short mode")
	}
	out := tableIII(true)
	if !strings.Contains(out, "prop/DP") || !strings.Contains(out, "corpus totals") {
		t.Errorf("Table III malformed:\n%s", out)
	}
	out = figScaling(true)
	if !strings.Contains(out, "expr-levels") {
		t.Errorf("Fig scaling malformed:\n%s", out)
	}
	out = figDigraph(true)
	if !strings.Contains(out, "anti-aligned") {
		t.Errorf("Fig digraph malformed:\n%s", out)
	}
}

func TestMeasureReturnsPositive(t *testing.T) {
	d := measure(func() {})
	if d < 0 {
		t.Errorf("measure returned %v", d)
	}
}

// The -metrics-out document must be valid, schema-stamped JSON with
// relation sizes, Digraph SCC statistics, per-phase timings and the
// cost-model counters for every corpus grammar.
func TestCollectMetrics(t *testing.T) {
	doc, err := collectMetrics(true, 1, &cliguard.Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != benchSchema || doc.Mode != "quick" {
		t.Errorf("schema/mode = %q/%q", doc.Schema, doc.Mode)
	}
	if len(doc.Grammars) < 10 {
		t.Fatalf("only %d grammars in metrics", len(doc.Grammars))
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back benchMetrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("metrics do not round-trip: %v", err)
	}
	for _, gm := range doc.Grammars {
		if gm.Fingerprint == "" {
			t.Errorf("%s: missing fingerprint", gm.Grammar)
		}
		if gm.LR0States == 0 || gm.NtTransitions == 0 {
			t.Errorf("%s: empty machine stats", gm.Grammar)
		}
		if gm.Digraph.IncludesSCCs == 0 {
			t.Errorf("%s: no SCC stats", gm.Grammar)
		}
		for _, k := range []string{"lr0", "dp", "slr", "prop"} {
			if gm.TimingsNs[k] <= 0 {
				t.Errorf("%s: missing timing %q", gm.Grammar, k)
			}
		}
		if len(gm.Phases) == 0 {
			t.Errorf("%s: no phase tree", gm.Grammar)
		}
		// The acceptance bar: at least 6 distinct counters, relation
		// edges, unions and SCC count among them.
		if len(gm.Counters) < 6 {
			t.Errorf("%s: only %d counters", gm.Grammar, len(gm.Counters))
		}
		for _, c := range []string{"bitset_unions", "sccs", "nt_transitions"} {
			if gm.Counters[c] == 0 {
				t.Errorf("%s: counter %q missing or zero", gm.Grammar, c)
			}
		}
		// relation_edges can legitimately be 0 only when the grammar has
		// no reads or includes edges at all.
		if gm.Counters["relation_edges"] == 0 &&
			gm.Relations.ReadsEdges+gm.Relations.IncludesEdges > 0 {
			t.Errorf("%s: relation_edges counter missing", gm.Grammar)
		}
	}
}

// -parallel must never change what the metrics document says, only how
// fast it is collected: same grammar order, same structural numbers and
// counters (timing fields are measured, so they are not compared).
func TestCollectMetricsParallelDeterministic(t *testing.T) {
	serial, err := collectMetrics(true, 1, &cliguard.Flags{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := collectMetrics(true, 4, &cliguard.Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Grammars) != len(serial.Grammars) {
		t.Fatalf("grammar counts differ: %d vs %d", len(par.Grammars), len(serial.Grammars))
	}
	for i := range serial.Grammars {
		s, p := serial.Grammars[i], par.Grammars[i]
		if p.Grammar != s.Grammar {
			t.Errorf("slot %d: grammar %q, want %q (order must be corpus order)", i, p.Grammar, s.Grammar)
		}
		if p.LR0States != s.LR0States || p.NtTransitions != s.NtTransitions ||
			p.Relations != s.Relations || p.Digraph != s.Digraph {
			t.Errorf("%s: structural metrics differ between serial and parallel collection", s.Grammar)
		}
		for _, c := range []string{"bitset_unions", "sccs", "relation_edges"} {
			if p.Counters[c] != s.Counters[c] {
				t.Errorf("%s: counter %s = %d, want %d", s.Grammar, c, p.Counters[c], s.Counters[c])
			}
		}
	}
}

// Error stubs (limit-aborted grammars under -keep-going) must still
// carry the content fingerprint, so failed runs stay joinable with
// successful runs of the same grammars by content address.
func TestMetricsErrorStubsCarryFingerprint(t *testing.T) {
	doc, err := collectMetrics(true, 1, &cliguard.Flags{MaxStates: 2, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	aborted := 0
	for i, gm := range doc.Grammars {
		if gm.Error == "" {
			continue
		}
		aborted++
		if gm.Fingerprint == "" {
			t.Errorf("%s: error stub has no fingerprint", gm.Grammar)
		}
		want := cache.Fingerprint(grammars.All()[i].Src, "dp")
		if gm.Fingerprint != want {
			t.Errorf("%s: stub fingerprint %s, want %s", gm.Grammar, gm.Fingerprint, want)
		}
	}
	if aborted == 0 {
		t.Fatal("MaxStates=2 aborted no grammars; the stub path went untested")
	}
}

func TestEmitMetricsWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := emitMetrics(path, true, 1, &cliguard.Flags{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchMetrics
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("emitted file is not valid JSON: %v", err)
	}
	if doc.Schema != benchSchema {
		t.Errorf("schema = %q", doc.Schema)
	}
}

// TestBenchCoreGate recomputes the deterministic fields of the committed
// BENCH_core.json — sizes, relation and SCC statistics and every
// cost-model counter, but not timings or phases — and requires an exact
// match, so "counters unchanged" is enforced rather than asserted.  Each
// row must also satisfy the paper's linearity identity: the Digraph
// passes perform one union per relation edge plus one copy per non-root
// SCC member, and la-union adds one per lookback edge.  The file is
// decoded strictly, so a field the writer no longer emits (a stale
// phase alloc_bytes, say) fails the gate instead of being ignored.
func TestBenchCoreGate(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	var want benchMetrics
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	got, err := collectMetrics(true, 1, &cliguard.Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Grammars) != len(want.Grammars) {
		t.Fatalf("%d rows, committed file has %d", len(got.Grammars), len(want.Grammars))
	}
	type row struct {
		Grammar, Fingerprint                          string
		Terminals, Nonterminals, Productions, LR0, NT int
		Relations                                     relationMetrics
		Digraph                                       digraphMetrics
		Counters                                      map[string]int64
	}
	proj := func(m grammarMetrics) row {
		return row{m.Grammar, m.Fingerprint, m.Terminals, m.Nonterminals, m.Productions,
			m.LR0States, m.NtTransitions, m.Relations, m.Digraph, m.Counters}
	}
	for i := range want.Grammars {
		g, w := proj(got.Grammars[i]), proj(want.Grammars[i])
		if !reflect.DeepEqual(g, w) {
			t.Errorf("row %d (%s) differs from BENCH_core.json:\ngot  %+v\nwant %+v", i, w.Grammar, g, w)
		}
		c := got.Grammars[i].Counters
		if lhs, rhs := c["bitset_unions"]-c["la_unions"], c["relation_edges"]+c["scc_pushes"]-c["sccs"]; lhs != rhs {
			t.Errorf("%s: bitset_unions − la_unions = %d, relation_edges + scc_pushes − sccs = %d", w.Grammar, lhs, rhs)
		}
	}
}

// The same identity per Digraph pass on the synthetic families, whose
// long chains and large SCC-free relations are where a miscount would
// show: Unions = Edges + Nodes − SCCs for both reads and includes.
func TestDigraphUnionIdentitySynthetic(t *testing.T) {
	for _, g := range []*grammar.Grammar{
		grammars.UnitChain(50), grammars.UnitChain(400),
		grammars.UnitChainReversed(50), grammars.UnitChainReversed(400),
		grammars.NullableChain(20), grammars.NullableChain(120),
		grammars.ExprLevels(5), grammars.ExprLevels(40),
	} {
		dp := core.Compute(lr0.New(g, nil))
		for _, st := range []*digraph.Stats{dp.ReadsStats, dp.IncludesStats} {
			if st.Unions != st.Edges+st.Nodes-st.SCCs {
				t.Errorf("%s: Unions = %d, want Edges %d + Nodes %d − SCCs %d", g.Name(), st.Unions, st.Edges, st.Nodes, st.SCCs)
			}
		}
	}
}
