package main

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/grammar"
	"repro/internal/grammars"
)

// key is a request's make-up: which grammar and how it is served.
type key struct {
	g int
	k kind
}

func prefix(t *testing.T, name string, seed int64) (*workload, []request) {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]request, w.traceN)
	for i := range rs {
		rs[i] = w.at(i)
	}
	return w, rs
}

func makeUp(rs []request) []key {
	ks := make([]key, len(rs))
	for i, r := range rs {
		ks[i] = key{r.g, r.kind}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].g != ks[j].g {
			return ks[i].g < ks[j].g
		}
		return ks[i].k < ks[j].k
	})
	return ks
}

// The same seed yields the same sequence; another seed reorders it but
// keeps the make-up of every whole-block prefix.
func TestSequenceDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, a := prefix(t, name, 7)
			_, b := prefix(t, name, 7)
			_, c := prefix(t, name, 8)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed, different sequences")
			}
			if reflect.DeepEqual(makeUp(a), makeUp(c)) == false {
				t.Fatal("another seed changed the workload's make-up")
			}
			same := 0
			for i := range a {
				if a[i].g == c[i].g && a[i].kind == c[i].kind {
					same++
				}
			}
			if same == len(a) {
				t.Fatal("another seed did not change the order")
			}
			if w.traceN%w.block != 0 {
				t.Fatalf("traced prefix %d is not whole blocks of %d", w.traceN, w.block)
			}
		})
	}
}

// Cold texts are never repeated, and every frozen read names a text
// the first server life stored.
func TestUniqueTextsAndStoredReads(t *testing.T) {
	for _, name := range []string{coldCorpus, storeRestart, coldLarge} {
		w, rs := prefix(t, name, 3)
		seen := map[string]bool{}
		for _, r := range w.warm {
			seen[w.text(r)] = true
		}
		stored := map[string]bool{}
		for _, r := range w.fill {
			stored[w.text(r)] = true
		}
		for i, r := range rs {
			text := w.text(r)
			switch r.kind {
			case kindMiss:
				if seen[text] || stored[text] {
					t.Fatalf("%s request %d: miss text was sent before", name, i)
				}
				seen[text] = true
			case kindRead:
				if !stored[text] {
					t.Fatalf("%s request %d: read of a text the store does not hold", name, i)
				}
			}
		}
	}
}

// grammar.WriteYacc writes ( and ) bare, so the generator writes the
// ExprLevels text itself; it must describe the same automaton.
func TestExprLevelsText(t *testing.T) {
	for _, n := range []int{1, 3, 100} {
		if err := sameStateCount(grammars.ExprLevels(n), exprLevelsText(n)); err != nil {
			t.Error(err)
		}
	}
	if _, err := grammar.Parse("e.y", grammars.ExprLevels(3).WriteYacc()); err == nil {
		t.Log("grammar.WriteYacc output of ExprLevels now re-parses; exprLevelsText could use it")
	}
}

// Counts and cache-outcome ratios are exact: the same on every run of
// a seed, and, since whole-block prefixes share their make-up, the
// same under another seed.
func TestCountsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	exact := []string{cStates, cEdges, cBody, cFile, "cache.hit_ratio", "frozen.read_ratio"}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			var first map[string]metric
			for run, seed := range []int64{1, 1, 2} {
				// Two seconds complete whole blocks on every workload;
				// the ratios count whole blocks only.
				res, report, err := runBench(options{
					workload: name, seed: seed, seconds: 2 * time.Second, trace: true,
					root: "..", traceN: 2 * w.block, setups: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run %d not correct:\n%s", run, report)
				}
				got := map[string]metric{}
				for _, m := range exact {
					got[m] = res.Metrics[m]
				}
				if first == nil {
					first = got
					continue
				}
				if !reflect.DeepEqual(first, got) {
					t.Fatalf("run %d (seed %d) counts differ:\n%v\n%v", run, seed, fmt.Sprint(first), fmt.Sprint(got))
				}
			}
		})
	}
}
