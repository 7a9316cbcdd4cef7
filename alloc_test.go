package repro

// Allocation-regression gates for the arena-backed pipeline.  The
// benchmarks report allocs/op for the two hot constructions on the
// largest corpus grammar; the tests pin hard ceilings so a change that
// silently reverts to per-set or per-item allocation fails `go test`,
// not just a benchmark diff nobody reads.  The last two gates bound
// what attaching a Recorder costs: a fixed handful of allocations and
// no stop-the-world pause.

import (
	"os"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/core"
	"repro/internal/frozen"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
)

func csubAutomaton(tb testing.TB) (*grammar.Grammar, *grammar.Analysis, *lr0.Automaton) {
	tb.Helper()
	g := grammars.MustLoad("csub")
	an := grammar.Analyze(g)
	return g, an, lr0.New(g, an)
}

// BenchmarkAllocDPCompute isolates the full DeRemer–Pennello pass on the
// C subset grammar (the corpus's largest machine) purely for its
// allocs/op series; BenchmarkTableII_Relations is the timing view of the
// same work across the whole corpus.
func BenchmarkAllocDPCompute(b *testing.B) {
	_, _, a := csubAutomaton(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Compute(a)
	}
}

// BenchmarkAllocLR0Construction is the same gate for LR(0) construction.
func BenchmarkAllocLR0Construction(b *testing.B) {
	g, an, _ := csubAutomaton(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lr0.New(g, an)
	}
}

// TestComputeAllocBound: with every set family arena-backed and every
// relation CSR-packed, core.Compute allocates O(1) blocks per *family*,
// not per set.  A per-set regression costs at least one allocation per
// nonterminal transition for each of DR/Read/Follow — ≥3× the machine's
// nt-transition count — so the nt-transition count itself is a ceiling
// with a wide margin on both sides (currently ~8× above the real count,
// ~9× below the cheapest regression).
func TestComputeAllocBound(t *testing.T) {
	_, _, a := csubAutomaton(t)
	bound := float64(len(a.NtTrans))
	got := testing.AllocsPerRun(10, func() { _ = core.Compute(a) })
	t.Logf("core.Compute(csub): %.0f allocs (bound %.0f)", got, bound)
	if got > bound {
		t.Errorf("core.Compute allocates %.0f times on csub, bound %.0f — the arena path has regressed", got, bound)
	}
}

// TestFrozenDecodeAllocBound pins the zero-copy claim of the frozen
// loader: decoding a table is header validation plus slice views into
// the input buffer, so it allocates O(1) blocks per table — the Table
// struct, the fingerprint string, and nothing per state or per cell.
func TestFrozenDecodeAllocBound(t *testing.T) {
	raw, err := os.ReadFile("internal/frozen/testdata/golden.frz")
	if err != nil {
		t.Fatal(err)
	}
	const bound = 4
	got := testing.AllocsPerRun(10, func() {
		if _, err := frozen.Decode(raw); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("frozen.Decode(golden): %.0f allocs (bound %d)", got, bound)
	if got > bound {
		t.Errorf("frozen.Decode allocates %.0f times, bound %d — the zero-copy load has regressed", got, bound)
	}
}

// TestLR0AllocBound pins LR(0) construction, whose irreducible
// allocations are the per-state kernels and transition slices.  The
// interned/scratch-buffer construction sits near 5.5 allocations per
// state on csub; the pre-interning construction was ~51.  The ceiling of
// 12 per state keeps double headroom for layout drift while still
// failing long before any map-per-state or sort-per-state comes back.
func TestLR0AllocBound(t *testing.T) {
	g, an, a := csubAutomaton(t)
	bound := float64(12 * len(a.States))
	got := testing.AllocsPerRun(10, func() { _ = lr0.New(g, an) })
	t.Logf("lr0.New(csub): %.0f allocs over %d states (bound %.0f)", got, len(a.States), bound)
	if got > bound {
		t.Errorf("lr0.New allocates %.0f times on csub, bound %.0f — the allocation-lean construction has regressed", got, bound)
	}
}

// TestTableBuildAllocBound pins table construction on the cold-large
// unit chain.  GOTO is read from the automaton's own transitions, so a
// build allocates the ACTION rows (states × terminals, here 3 terminals)
// and nothing that grows as states × nonterminals; a dense GOTO copy
// would cost about 62 MB on UnitChain(4000).  The figure is the least
// heap growth over three builds, so a stray allocation elsewhere in the
// process cannot inflate it.
func TestTableBuildAllocBound(t *testing.T) {
	a := lr0.New(grammars.UnitChain(4000), nil)
	sets := core.Compute(a).Sets()
	const bound = 1 << 20
	var got uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = lalrtable.Build(a, sets)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < got {
			got = d
		}
	}
	t.Logf("lalrtable.Build(unit-chain-4000): %d B over %d states (bound %d)", got, len(a.States), bound)
	if got > bound {
		t.Errorf("lalrtable.Build allocates %d B on unit-chain-4000, bound %d — table storage grows with states × nonterminals again", got, bound)
	}
}

// TestRecorderAllocOverhead bounds what observing an analysis costs in
// allocations: a recorded Analyze plus its ExportData may allocate at
// most 64 times more than a plain Analyze.  The recorder allocates per
// span and per counter name, never per item, so one bound holds on the
// smallest and the largest corpus machines alike.
func TestRecorderAllocOverhead(t *testing.T) {
	const bound = 64
	for _, name := range []string{"json", "ada"} {
		g := grammars.MustLoad(name)
		plain := testing.AllocsPerRun(10, func() {
			if _, err := Analyze(g, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		recorded := testing.AllocsPerRun(10, func() {
			rec := NewRecorder()
			if _, err := Analyze(g, Options{Recorder: rec}); err != nil {
				t.Fatal(err)
			}
			_ = rec.ExportData()
		})
		got := recorded - plain
		t.Logf("%s: recorded %.0f − plain %.0f = %.0f allocs (bound %d)", name, recorded, plain, got, bound)
		if got > bound {
			t.Errorf("%s: a Recorder adds %.0f allocations to Analyze, bound %d", name, got, bound)
		}
	}
}

// stopTheWorldPauses is the process's count of stop-the-world pauses
// other than the garbage collector's own (ReadMemStats, for one).
func stopTheWorldPauses() uint64 {
	s := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// TestRecordedAnalyzeStopsNoWorld: recording an analysis must not pause
// the process.  A span that sampled heap statistics at its boundaries
// would stop the world twice, 24 times per Analyze of ada.  No test in
// this package runs in parallel, so nothing else pauses the world while
// this one counts.
func TestRecordedAnalyzeStopsNoWorld(t *testing.T) {
	g := grammars.MustLoad("ada")
	before := stopTheWorldPauses()
	for i := 0; i < 20; i++ {
		if _, err := Analyze(g, Options{Recorder: NewRecorder()}); err != nil {
			t.Fatal(err)
		}
	}
	if got := stopTheWorldPauses() - before; got != 0 {
		t.Errorf("20 recorded Analyze(ada) calls stopped the world %d times, want 0", got)
	}
}
