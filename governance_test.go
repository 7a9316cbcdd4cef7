package repro_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro"
	"repro/internal/grammars"
	"repro/internal/guard"
)

// allMethods is every look-ahead method the public API accepts, so the
// governance tests prove the budget reaches each pipeline variant.
var allMethods = []repro.Method{
	repro.MethodDeRemerPennello,
	repro.MethodSLR,
	repro.MethodPropagation,
	repro.MethodCanonicalMerge,
}

// TestAnalyzeCanonicalLimitTrip is the acceptance test for resource
// limits: the canonical LR(1) collection — the pipeline's real
// explosion risk — must stop at MaxLR1States and report a typed error
// carrying the phase and both counts.
func TestAnalyzeCanonicalLimitTrip(t *testing.T) {
	g := grammars.MustLoad("pascal")
	res, err := repro.Analyze(g, repro.Options{
		Method: repro.MethodCanonicalMerge,
		Limits: repro.Limits{MaxLR1States: 40},
	})
	if res != nil {
		t.Error("result returned despite tripped limit")
	}
	if !errors.Is(err, repro.ErrLimit) {
		t.Fatalf("err = %v, want match for repro.ErrLimit", err)
	}
	var le *repro.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *repro.LimitError", err)
	}
	if le.Resource != guard.ResLR1States {
		t.Errorf("Resource = %q, want %q", le.Resource, guard.ResLR1States)
	}
	if le.Phase != "lr1-states" {
		t.Errorf("Phase = %q, want %q", le.Phase, "lr1-states")
	}
	if le.Limit != 40 || le.Observed <= le.Limit {
		t.Errorf("Observed/Limit = %d/%d, want observed > limit = 40", le.Observed, le.Limit)
	}
}

// TestAnalyzeLR0LimitTrip: MaxStates bounds the LR(0) construction
// every method shares, with the phase attributed correctly.
func TestAnalyzeLR0LimitTrip(t *testing.T) {
	g := grammars.MustLoad("pascal")
	for _, m := range allMethods {
		res, err := repro.Analyze(g, repro.Options{
			Method: m,
			Limits: repro.Limits{MaxStates: 10},
		})
		if res != nil {
			t.Errorf("method %v: result returned despite tripped limit", m)
		}
		var le *repro.LimitError
		if !errors.As(err, &le) {
			t.Fatalf("method %v: err = %v, want *repro.LimitError", m, err)
		}
		if le.Resource != guard.ResLR0States || le.Phase != "lr0-states" {
			t.Errorf("method %v: tripped %s in phase %s, want lr0_states in lr0-states",
				m, le.Resource, le.Phase)
		}
	}
}

// TestAnalyzePreCancelledContext: a context that is already done must
// abort every method before any real work — the budget's countdown
// starts at 1, so the very first checkpoint observes the cancellation,
// and that checkpoint is in the grammar analysis that opens the
// pipeline.
func TestAnalyzePreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := grammars.MustLoad("json")
	for _, m := range allMethods {
		res, err := repro.AnalyzeContext(ctx, g, repro.Options{Method: m})
		if res != nil {
			t.Errorf("method %v: result returned despite cancelled context", m)
		}
		if !errors.Is(err, repro.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("method %v: err = %v, want match for ErrCanceled and context.Canceled", m, err)
		}
		var ce *guard.CancelError
		if !errors.As(err, &ce) || ce.Phase != "grammar-analysis" {
			t.Errorf("method %v: err = %v, want a cancellation in phase grammar-analysis", m, err)
		}
	}
}

// TestAnalyzeHostileUnitChainDeadline: a unit chain of 16000 symbols,
// a grammar of about 200 KB, must honour a 5 ms deadline within a
// 500 ms slack.  A front end quadratic in the chain, or one without a
// checkpoint, runs for seconds before the first checkpoint after it.
// The whole linear pipeline takes 30–40 ms on this chain (2-CPU VM),
// so the deadline always falls inside the analysis.
func TestAnalyzeHostileUnitChainDeadline(t *testing.T) {
	g := grammars.UnitChain(16000)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := repro.AnalyzeContext(ctx, g, repro.Options{})
	elapsed := time.Since(start)
	if res != nil || !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("err = %v, want a match for ErrCanceled", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("returned after %v, want within 500ms of a 50ms deadline", elapsed)
	}
	t.Logf("%v after %v", err, elapsed)
}

// TestAnalyzeCancelMidRun is the acceptance test for prompt
// cancellation: the context is cancelled *at* a checkpoint (via the
// fault-injection hook, so the timing is deterministic), and the abort
// must surface from that same checkpoint — within one checkpoint
// interval — for every method, on a grammar large enough that plenty
// of work remains.
func TestAnalyzeCancelMidRun(t *testing.T) {
	g := grammars.ExprLevels(24)
	for _, m := range allMethods {
		ctx, cancel := context.WithCancel(context.Background())
		restore := guard.InjectFault(&guard.Fault{
			Do: func() error { cancel(); return nil },
		})
		res, err := repro.AnalyzeContext(ctx, g, repro.Options{Method: m})
		restore()
		cancel()
		if res != nil {
			t.Errorf("method %v: result returned despite mid-run cancellation", m)
		}
		if !errors.Is(err, repro.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("method %v: err = %v, want match for ErrCanceled and context.Canceled", m, err)
		}
		var ce *guard.CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("method %v: err = %v, want *guard.CancelError", m, err)
		}
		// The fault fired inside a checkpoint and the same checkpoint
		// reported the cancellation, so the phase names where the abort
		// landed; an empty phase would mean it leaked past the budget.
		if ce.Phase == "" {
			t.Errorf("method %v: cancellation carries no phase", m)
		}
	}
}

// laFingerprint renders every look-ahead set of a result in state and
// reduction order, so two analyses can be compared byte for byte.
func laFingerprint(r *repro.Result) string {
	out := ""
	for q, sets := range r.Lookahead {
		for i, s := range sets {
			out += fmt.Sprintf("%d/%d:%s\n", q, i, s.String())
		}
	}
	return out
}

// TestAnalyzeAllInjectedPanicIsolation is the acceptance test for fault
// containment: a panic injected into exactly one grammar of a batch
// must yield one *InternalError entry while every other grammar's
// result stays byte-identical to a serial, fault-free run.
func TestAnalyzeAllInjectedPanicIsolation(t *testing.T) {
	gs := batchCorpus(t)
	const victim = "pascal"
	victimIdx := -1
	want := make([]string, len(gs))
	for i, g := range gs {
		if g.Name() == victim {
			victimIdx = i
		}
		res, err := repro.Analyze(g, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = laFingerprint(res)
	}
	if victimIdx < 0 {
		t.Fatalf("corpus lacks grammar %q", victim)
	}

	restore := guard.InjectFault(&guard.Fault{
		Owner: victim,
		Do:    func() error { panic("injected fault: poisoned grammar") },
	})
	defer restore()
	results, err := repro.AnalyzeAll(gs, repro.BatchOptions{
		Workers: 4,
		Policy:  repro.BatchCollect,
	})
	if err == nil {
		t.Fatal("poisoned grammar did not fail the batch")
	}
	var ie *repro.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *repro.InternalError", err)
	}
	if ie.Grammar != victim {
		t.Errorf("InternalError.Grammar = %q, want %q", ie.Grammar, victim)
	}
	if len(ie.Stack) == 0 {
		t.Error("InternalError carries no stack trace")
	}
	for i, r := range results {
		if i == victimIdx {
			if r != nil {
				t.Error("poisoned grammar produced a result")
			}
			continue
		}
		if r == nil {
			t.Errorf("%s: result dropped because a sibling panicked", gs[i].Name())
			continue
		}
		if got := laFingerprint(r); got != want[i] {
			t.Errorf("%s: result differs from serial fault-free run", gs[i].Name())
		}
	}
}

// TestAnalyzeAllFailFastStops: under BatchFailFast a poisoned grammar
// cancels the rest of the batch and the batch error is the root cause.
func TestAnalyzeAllFailFastStops(t *testing.T) {
	gs := batchCorpus(t)
	restore := guard.InjectFault(&guard.Fault{
		Owner: gs[0].Name(),
		Do:    func() error { panic("injected fault") },
	})
	defer restore()
	_, err := repro.AnalyzeAll(gs, repro.BatchOptions{
		Workers: 2,
		Policy:  repro.BatchFailFast,
	})
	var ie *repro.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *repro.InternalError", err)
	}
}

// TestLintGoverned: the lint entry point shares the same governance
// surface — limits trip with the same typed errors.
func TestLintGoverned(t *testing.T) {
	g := grammars.MustLoad("pascal")
	rep, err := repro.Lint(g, repro.LintOptions{Limits: repro.Limits{MaxStates: 10}})
	if rep != nil {
		t.Error("report returned despite tripped limit")
	}
	if !errors.Is(err, repro.ErrLimit) {
		t.Fatalf("err = %v, want match for repro.ErrLimit", err)
	}
}
