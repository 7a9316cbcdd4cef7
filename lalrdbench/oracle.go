package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro"
	"repro/internal/cache"
	"repro/internal/export"
	"repro/internal/server"
)

// benchRow is the part of a BENCH_core.json row the oracle reads: the
// relation sizes pinned for each corpus grammar.
type benchRow struct {
	Grammar       string `json:"grammar"`
	LR0States     int    `json:"lr0_states"`
	NtTransitions int    `json:"nt_transitions"`
	Relations     struct {
		Reads    int `json:"reads_edges"`
		Includes int `json:"includes_edges"`
		Lookback int `json:"lookback_edges"`
	} `json:"relations"`
}

func loadBenchCore(path string) (map[string]benchRow, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Grammars []benchRow `json:"grammars"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rows := make(map[string]benchRow, len(doc.Grammars))
	for _, r := range doc.Grammars {
		rows[r.Grammar] = r
	}
	return rows, nil
}

// verify checks a reference body against references computed without
// the code under test's serving path: look-ahead sets against
// canonical LR(1) merged by core (a separate algorithm), unresolved
// conflict counts against the corpus's pinned counts, and relation
// sizes against BENCH_core.json (corpus) or the grammar built in code
// (synthetic families).
func verify(g *grammarSrc, ref *reference, rows map[string]benchRow) error {
	var resp server.AnalyzeResponse
	if err := json.Unmarshal(ref.body, &resp); err != nil {
		return fmt.Errorf("body does not decode: %v", err)
	}
	if resp.Schema != server.Schema || resp.Kind != "analyze" || resp.Method != method || resp.Report == nil {
		return fmt.Errorf("envelope: schema %q kind %q method %q", resp.Schema, resp.Kind, resp.Method)
	}
	if want := cache.Fingerprint(ref.text, method); resp.Fingerprint != want {
		return fmt.Errorf("fingerprint %s, want %s", resp.Fingerprint, want)
	}
	rep := resp.Report

	parsed, err := repro.LoadGrammar(g.file, ref.text)
	if err != nil {
		return err
	}
	lr1, err := repro.Analyze(parsed, repro.Options{Method: repro.MethodCanonicalMerge})
	if err != nil {
		return fmt.Errorf("canonical LR(1): %v", err)
	}
	got, err := json.Marshal(rep.States)
	if err != nil {
		return err
	}
	want, err := json.Marshal(export.Build(lr1.Automaton, lr1.Lookahead, lr1.Tables, nil, method).States)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("states or look-ahead sets differ from canonical LR(1) merged by core")
	}

	sr, rr := 0, 0
	for _, c := range rep.Conflicts {
		switch {
		case !c.Unresolved:
		case c.Kind == "shift/reduce":
			sr++
		default:
			rr++
		}
	}
	if sr != g.wantSR || rr != g.wantRR {
		return fmt.Errorf("unresolved conflicts %d s/r %d r/r, want %d and %d", sr, rr, g.wantSR, g.wantRR)
	}

	rel := rep.Relations
	if rel == nil {
		return fmt.Errorf("report has no relations")
	}
	var states, nt, reads, includes, lookback int
	if g.built == nil {
		row, ok := rows[g.name]
		if !ok {
			return fmt.Errorf("no BENCH_core.json row for %s", g.name)
		}
		states, nt = row.LR0States, row.NtTransitions
		reads, includes, lookback = row.Relations.Reads, row.Relations.Includes, row.Relations.Lookback
	} else {
		res, err := repro.Analyze(g.built, repro.Options{})
		if err != nil {
			return err
		}
		st := res.DP.Stats()
		states, nt = len(res.Automaton.States), st.NtTransitions
		reads, includes, lookback = st.ReadsEdges, st.IncludesEdges, st.LookbackEdges
	}
	if len(rep.States) != states || rel.NtTransitions != nt || rel.ReadsEdges != reads ||
		rel.IncludesEdges != includes || rel.LookbackEdges != lookback {
		return fmt.Errorf("relation sizes states=%d nt=%d reads=%d includes=%d lookback=%d, want %d %d %d %d %d",
			len(rep.States), rel.NtTransitions, rel.ReadsEdges, rel.IncludesEdges, rel.LookbackEdges,
			states, nt, reads, includes, lookback)
	}
	return nil
}
