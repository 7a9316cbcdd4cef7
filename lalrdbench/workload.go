package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro"
	"repro/internal/grammar"
	"repro/internal/grammars"
)

// Workload names, as passed to -workload.
const (
	coldCorpus   = "cold-corpus"
	warmHits     = "warm-hits"
	storeRestart = "store-restart"
	coldLarge    = "cold-large"
)

var workloadNames = []string{coldCorpus, warmHits, storeRestart, coldLarge}

// kind is how the server is expected to answer a request.
type kind uint8

const (
	kindMiss kind = iota // text never seen: the analysis pipeline runs
	kindHit              // text answered before: response-cache hit
	kindRead             // text the frozen store holds: frozen read
)

// kindLabels name each kind's requests in the report.
var kindLabels = [...]string{"all misses", "all hits", "all frozen reads"}

func (k kind) String() string {
	return [...]string{"miss", "hit", "frozen"}[k]
}

// grammarSrc is one distinct grammar a workload sends.  Requests carry
// its text behind a per-request nonce comment, so the cache key
// changes and the analysis does not.
type grammarSrc struct {
	name   string
	file   string // filename sent with each request; names the report
	src    string
	esc    string // src as JSON string content, without the quotes
	wantSR int
	wantRR int
	// built is the grammar constructed in code for a synthetic family
	// (nil for corpus grammars); the oracle takes its relation sizes
	// as the reference.
	built *grammar.Grammar
}

func newGrammarSrc(name, src string, wantSR, wantRR int, built *grammar.Grammar) *grammarSrc {
	q, _ := json.Marshal(src) // a string always marshals
	return &grammarSrc{
		name: name, file: name + ".y", src: src,
		esc:    string(q[1 : len(q)-1]),
		wantSR: wantSR, wantRR: wantRR, built: built,
	}
}

// request is one POST /v1/analyze of the generated sequence.
type request struct {
	g     int    // index into workload.grammars
	kind  kind   // expected X-Repro-Cache outcome
	nonce string // leading comment line that makes the text unique
}

// text is the grammar text the request sends.
func (w *workload) text(r request) string { return r.nonce + w.grammars[r.g].src }

// body is the JSON request body.
func (w *workload) body(r request) []byte {
	g := w.grammars[r.g]
	b := make([]byte, 0, len(g.esc)+len(r.nonce)+64)
	b = append(b, `{"grammar":"`...)
	b = append(b, strings.ReplaceAll(r.nonce, "\n", `\n`)...)
	b = append(b, g.esc...)
	b = append(b, `","filename":"`...)
	b = append(b, g.file...)
	return append(b, `"}`...)
}

// workload is a seeded, unbounded request sequence plus the requests
// its setup sends.  The sequence is made of blocks: every block holds
// the same multiset of (grammar, kind) pairs in a seed-dependent
// order, so any prefix of whole blocks has the same make-up under
// every seed.
type workload struct {
	name     string
	seed     int64
	grammars []*grammarSrc
	store    bool
	setups   int // setups per run; setup_s is their median
	block    int // requests per block
	traceN   int // traced-replay length, whole blocks
	// fill is sent to a first server life that is then stopped (only
	// store-restart has one); warm is sent to the measured server
	// before the clock starts.
	fill, warm []request
	at         func(i int) request
}

// Sequence parameters.  A store-restart block holds one frozen read
// and storeMissesPer misses of every corpus grammar.  One miss per read
// would put the median latency on the edge between the read band
// (about 0.3 ms) and the miss band (from about 1.1 ms), where it jumps
// between the two; two is the smallest count that puts it inside the
// miss band.
//
// storePool is the number of texts the first server life freezes; the
// read stream cycles through them in a fixed order, so two reads of
// one text are poolBlocks*storeBlock = 1890 requests apart.  Those
// requests insert about 150 MB of bodies into the 64 MB response cache
// (about 9 MB into each of its 4 MB shards), so a text is always
// evicted before it is read again and every read stays a frozen read;
// drive fails any read answered otherwise.
const (
	storeMissesPer = 2
	storeReads     = 15 // per block: one read of each corpus grammar
	storeMisses    = storeMissesPer * storeReads
	storeBlock     = storeReads + storeMisses
	poolBlocks     = 42
	storePool      = poolBlocks * storeReads
)

// Random streams, one per independent draw.
const (
	streamOrder uint64 = iota + 1
	streamPool
	streamMix
	streamMiss
)

func nonce(seed int64, tag string, n int) string {
	return fmt.Sprintf("/* %d-%s%d */\n", seed, tag, n)
}

func newWorkload(name string, seed int64) (*workload, error) {
	// A cold-corpus or warm-hits setup takes about 30 ms, so setup_s is
	// the median of many; a store-restart setup analyses the whole pool.
	w := &workload{name: name, seed: seed, setups: 25}
	switch name {
	case coldCorpus, warmHits, storeRestart:
		for _, e := range grammars.All() {
			w.grammars = append(w.grammars, newGrammarSrc(e.Name, e.Src, e.WantSR, e.WantRR, nil))
		}
	case coldLarge:
		gs, err := largeGrammars()
		if err != nil {
			return nil, err
		}
		w.grammars = gs
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	n := len(w.grammars)
	drawn := func(stream uint64, tag string, kd kind) func(i int) request {
		return func(i int) request {
			return request{g: permAt(seed, stream, i/n, n, i%n), kind: kd, nonce: nonce(seed, tag, i)}
		}
	}
	switch name {
	case coldCorpus, coldLarge:
		w.block = n
		w.at = drawn(streamOrder, "", kindMiss)
		for i := 0; i < n; i++ {
			w.warm = append(w.warm, request{g: i, nonce: nonce(seed, "w", i)})
		}
		w.traceN = 100 * n
		if name == coldLarge {
			w.traceN = 10 * n
			w.setups = 9
		}
	case warmHits:
		w.block = n
		for i := 0; i < n; i++ {
			w.warm = append(w.warm, request{g: i, nonce: nonce(seed, "h", i)})
		}
		w.at = func(i int) request {
			g := permAt(seed, streamOrder, i/n, n, i%n)
			return request{g: g, kind: kindHit, nonce: w.warm[g].nonce}
		}
		w.traceN = 200 * n
	case storeRestart:
		w.store = true
		w.setups = 5
		w.block = storeBlock
		pool := drawn(streamPool, "p", kindMiss)
		for j := 0; j < storePool; j++ {
			w.fill = append(w.fill, pool(j))
		}
		miss := drawn(streamMiss, "", kindMiss)
		w.at = func(i int) request {
			b, pos := i/storeBlock, i%storeBlock
			// Slots 0..storeReads-1 of the shuffled block are reads.
			slot := permAt(seed, streamMix, b, storeBlock, pos)
			if slot < storeReads {
				r := w.fill[(b*storeReads+slot)%storePool]
				r.kind = kindRead
				return r
			}
			m := miss(b*storeMisses + slot - storeReads)
			m.nonce = nonce(seed, "", i)
			return m
		}
		w.traceN = 20 * storeBlock
	}
	return w, nil
}

// largeGrammars is the cold-large menu: synthetic families where the
// front end and table construction grow superlinearly.  The unit
// chains run at 1000 and 4000 symbols, the two sizes between which
// grammar.Analyze grows from 9 to 135 ms; their bodies grow linearly,
// to 1.15 MB.  NullableChain and ExprLevels bodies grow with the square
// of their size, so they stop at 200, where bodies reach 1.1 and
// 1.4 MB (at 400 they would be 4 and 5 MB).  The menu has an odd
// number of grammars, so the median latency falls inside one
// grammar's band instead of in the gap between two.
func largeGrammars() ([]*grammarSrc, error) {
	var out []*grammarSrc
	for _, n := range []int{1000, 4000} {
		g := grammars.UnitChain(n)
		out = append(out, newGrammarSrc(g.Name(), g.WriteYacc(), 0, 0, g))
		g = grammars.UnitChainReversed(n)
		out = append(out, newGrammarSrc(g.Name(), g.WriteYacc(), 0, 0, g))
	}
	for _, n := range []int{100, 150, 200} {
		g := grammars.NullableChain(n)
		out = append(out, newGrammarSrc(g.Name(), g.WriteYacc(), 0, 0, g))
	}
	for _, n := range []int{100, 200} {
		g := grammars.ExprLevels(n)
		src := exprLevelsText(n)
		if err := sameStateCount(g, src); err != nil {
			return nil, err
		}
		out = append(out, newGrammarSrc(g.Name(), src, 0, 0, g))
	}
	return out, nil
}

// sameStateCount checks that text written for a built grammar analyses
// to the same number of LR(0) states.
func sameStateCount(built *grammar.Grammar, src string) error {
	parsed, err := repro.LoadGrammar(built.Name()+".y", src)
	if err != nil {
		return fmt.Errorf("%s text: %w", built.Name(), err)
	}
	a, err := repro.Analyze(built, repro.Options{})
	if err != nil {
		return err
	}
	b, err := repro.Analyze(parsed, repro.Options{})
	if err != nil {
		return err
	}
	if na, nb := len(a.Automaton.States), len(b.Automaton.States); na != nb {
		return fmt.Errorf("%s text has %d LR(0) states, the built grammar %d", built.Name(), nb, na)
	}
	return nil
}

// exprLevelsText writes grammars.ExprLevels(n) as grammar text.
// grammar.WriteYacc cannot be used: it writes the punctuation
// terminals ( and ) bare, and its output fails to re-parse.  Here
// they are quoted literals.
func exprLevelsText(n int) string {
	var b strings.Builder
	b.WriteString("%token id")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " op%d", i)
	}
	b.WriteString("\n%start e0\n%%\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e%d : e%d op%d e%d | e%d ;\n", i, i, i, i+1, i+1)
	}
	fmt.Fprintf(&b, "e%d : '(' e0 ')' | id ;\n", n)
	return b.String()
}

// permAt returns element pos of a seeded permutation of 0..n-1, the
// permutation of block b in the given stream.
func permAt(seed int64, stream uint64, b, n, pos int) int {
	var p [64]int
	for i := 0; i < n; i++ {
		p[i] = i
	}
	s := splitmix(uint64(seed) ^ splitmix(stream<<40^uint64(b)))
	for i := n - 1; i > 0; i-- {
		s = splitmix(s)
		j := int(s % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p[pos]
}

// splitmix is the SplitMix64 finalizer: a stateless, portable hash, so
// sequences do not depend on math/rand's implementation.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
