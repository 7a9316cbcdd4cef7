// Command lalrdbench is the lalrd serving benchmark.  It boots the
// server in process on a loopback listener, drives one of four
// generated workloads through it as a closed loop of two clients,
// checks every response, and prints end-to-end metrics (-trace 0) or
// per-layer metrics from a traced replay of the same requests
// (-trace 1).  The last line of standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash lalrdbench/run.sh --workload cold-corpus --seed 1 --seconds 30 --trace 0
//
// See NOTES.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// absent is the value of a per-layer metric whose layer does not run on
// the workload: it is never a measurement, and never 0.
const absent = -1

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string
	traceN   int // traced-replay length; 0 = the workload's own
	setups   int // 0 = the workload's own
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated request sequence")
	flag.IntVar(&seconds, "seconds", 30, "length of the measured run")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced replay instead of end-to-end metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout: holds BENCH_core.json; work files go under .bench_build")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, report, err := runBench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lalrdbench:", err)
		os.Exit(1)
	}
	fmt.Print(report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lalrdbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runBench sets the workload up, measures it, checks it and returns
// the result line plus a human-readable report.
func runBench(o options) (*result, string, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, "", err
	}
	if o.traceN > 0 {
		w.traceN = o.traceN
	}
	if o.setups == 0 {
		o.setups = w.setups
	}
	rows, err := loadBenchCore(filepath.Join(o.root, "BENCH_core.json"))
	if err != nil {
		return nil, "", err
	}
	dir := filepath.Join(o.root, ".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(dir)

	chk := newChecker(w)
	var (
		nd       *node
		cs       []*client
		storeDir string
		setupS   []float64
	)
	// The last setup's server is the one measured.
	for k := 0; k < o.setups; k++ {
		if nd != nil {
			closeClients(cs)
			if err := nd.stop(); err != nil {
				return nil, "", err
			}
			os.RemoveAll(storeDir)
		}
		if w.store {
			storeDir = filepath.Join(dir, fmt.Sprintf("store-%d", k))
		}
		runtime.GC() // start each setup from the same heap state
		t0 := time.Now()
		nd, cs, err = setup(w, chk, storeDir)
		if err != nil {
			return nil, "", fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	runtime.GC() // the measured run, too, starts from a collected heap
	rt0 := readRuntime()
	t := drive(cs, w, chk, w.at, 0, o.seconds)
	rt1 := readRuntime()

	var tr *traced
	if o.trace {
		tr, err = replay(w, chk, w.traceN, storeDir, filepath.Join(dir, "replay-store"), nd.url)
		if err != nil {
			return nil, "", err
		}
	}
	closeClients(cs)
	if err := nd.stop(); err != nil {
		return nil, "", err
	}

	// The oracle runs after the timed phases.  A reference that fails it
	// fails every response of its grammar.
	var problems []string
	if t.firstErr != "" {
		problems = append(problems, t.firstErr)
	}
	for g, gs := range w.grammars {
		ref := chk.refs[g].Load()
		if ref == nil {
			if t.perGrammar[g] > 0 {
				problems = append(problems, gs.name+": no reference body")
			}
			continue
		}
		if err := verify(gs, ref, rows); err != nil {
			t.failed += t.perGrammar[g]
			problems = append(problems, fmt.Sprintf("%s: %v", gs.name, err))
		}
	}

	lat := make([]float64, len(t.lat))
	for i, d := range t.lat {
		lat[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(lat)
	p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
	beyond := len(lat) - sort.SearchFloat64s(lat, p99)
	var b strings.Builder
	fmt.Fprintf(&b, "lalrdbench %s seed=%d seconds=%d clients=%d GOMAXPROCS=%d trace=%v\n",
		w.name, w.seed, int(o.seconds/time.Second), clients, runtime.GOMAXPROCS(0), o.trace)
	fmt.Fprintf(&b, "measured run: %d requests, %d failed (failed_ratio %.6f); %d latency samples, %d beyond p99\n",
		t.attempted, t.failed, ratio(t.failed, t.attempted), len(lat), beyond)
	fmt.Fprintf(&b, "latency quantiles (ms):")
	for _, q := range []float64{0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99, 0.999} {
		fmt.Fprintf(&b, " p%g=%.3f", q*100, quantile(lat, q))
	}
	fmt.Fprintln(&b)
	byG := make([][]float64, len(w.grammars))
	var byK [len(kindLabels)][]float64
	for i, d := range t.lat {
		ms := float64(d.Nanoseconds()) / 1e6
		byG[t.latG[i]] = append(byG[t.latG[i]], ms)
		byK[t.latK[i]] = append(byK[t.latK[i]], ms)
	}
	for g, ls := range byG {
		fmt.Fprintf(&b, "  %-24s p50 %9.3f ms over %d requests\n", w.grammars[g].name, median(ls), len(ls))
	}
	for k, ls := range byK {
		if len(ls) > 0 {
			fmt.Fprintf(&b, "  %-24s p50 %9.3f ms over %d requests\n", kindLabels[k], median(ls), len(ls))
		}
	}
	fmt.Fprintf(&b, "throughput per second of the run: %v\n", windows(t.done, o.seconds))
	fmt.Fprintf(&b, "setups (s): %v\n", setupS)

	ms := map[string]metric{}
	if !o.trace {
		ms["setup_s"] = metric{median(setupS), "s"}
		ms["throughput_rps"] = metric{float64(t.attempted) / t.elapsed.Seconds(), "1/s"}
		ms["latency_p50_ms"] = metric{p50, "ms"}
		ms["latency_p99_ms"] = metric{p99, "ms"}
		ms["peak_rss_mb"] = metric{float64(rt1.maxRSSKiB) / 1024, "MB"}
	} else {
		problems = append(problems, layerMetrics(w, t, tr, p50, rt0, rt1, ms)...)
		fmt.Fprintf(&b, "traced run: %d requests, %d failed\n", len(tr.pathSum)+tr.failed, tr.failed)
		fmt.Fprintf(&b, "per-request means (us):")
		for _, name := range timedLayers {
			if xs := tr.s[name]; len(xs) > 0 {
				fmt.Fprintf(&b, " %s=%.1f", name, mean(xs))
			}
		}
		// CPU time the process received, per request.  Time the
		// machine's hypervisor steals is not charged to it, so it moves
		// less than throughput when the machine is shared.
		fmt.Fprintf(&b, "\nprocess CPU per request of the measured run: %.1f us\n",
			float64((rt1.cpu-rt0.cpu).Nanoseconds())/1e3/float64(t.attempted))
		t.attempted += len(tr.pathSum) + tr.failed
		t.failed += tr.failed
	}
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		if m.Value == absent {
			fmt.Fprintf(&b, "  %-30s absent (layer does not run on %s)\n", name, w.name)
			continue
		}
		fmt.Fprintf(&b, "  %-30s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, p := range problems {
		fmt.Fprintf(&b, "FAIL: %s\n", p)
	}
	res := &result{Correct: len(problems) == 0 && t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms}
	return res, b.String(), nil
}

// setup starts the measured server with its workload state: for
// store-restart a first server life fills the store and stops, then a
// fresh server opens the same directory; every workload then sends its
// warm-up requests.
func setup(w *workload, chk *checker, storeDir string) (*node, []*client, error) {
	if len(w.fill) > 0 {
		first, err := startNode(storeDir)
		if err != nil {
			return nil, nil, err
		}
		cs := newClients(first.url)
		t := drive(cs, w, chk, func(i int) request { return w.fill[i] }, len(w.fill), 0)
		closeClients(cs)
		if err := first.stop(); err != nil {
			return nil, nil, err
		}
		if t.failed > 0 {
			return nil, nil, fmt.Errorf("fill: %s", t.firstErr)
		}
	}
	nd, err := startNode(storeDir)
	if err != nil {
		return nil, nil, err
	}
	cs := newClients(nd.url)
	if len(w.warm) > 0 {
		if t := drive(cs, w, chk, func(i int) request { return w.warm[i] }, len(w.warm), 0); t.failed > 0 {
			closeClients(cs)
			nd.stop()
			return nil, nil, fmt.Errorf("warm-up: %s", t.firstErr)
		}
	}
	return nd, cs, nil
}

func newClients(url string) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(url)
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// layerMetrics fills the per-layer metrics of a traced run and returns
// any coverage or replay problems.
func layerMetrics(w *workload, t *tally, tr *traced, p50ms float64, rt0, rt1 runtimeStats, out map[string]metric) []string {
	var problems []string
	if tr.firstErr != "" {
		problems = append(problems, tr.firstErr)
	}
	want := expectedLayers(w)
	for _, name := range append(append([]string{}, timedLayers...), counts...) {
		switch n := len(tr.s[name]); {
		case want[name] && n == 0:
			problems = append(problems, fmt.Sprintf("coverage: %s has no samples on %s", name, w.name))
		case !want[name] && n > 0:
			problems = append(problems, fmt.Sprintf("coverage: %s ran on %s, where its layer should not", name, w.name))
		}
	}
	value := func(name string, agg func([]float64) float64) float64 {
		if len(tr.s[name]) == 0 {
			return absent
		}
		return agg(tr.s[name])
	}
	for _, name := range timedLayers {
		out[name] = metric{value(name, median), "us"}
	}
	for _, name := range meanLayers {
		out[meanName(name)] = metric{value(name, mean), "us"}
	}
	out[cStates] = metric{value(cStates, mean), "count"}
	out[cEdges] = metric{value(cEdges, mean), "count"}
	out[cBody] = metric{value(cBody, mean), "KiB"}
	out[cFile] = metric{value(cFile, mean), "KiB"}
	out[lResidual] = metric{p50ms*1e3 - median(tr.pathSum), "us"}

	// Outcome ratios over the whole blocks of the measured run, repeat
	// frozen reads included: every block has the same make-up, so they
	// are exact whatever the run's length.
	hit, read := t.ratios(t.attempted / w.block * w.block)
	out["cache.hit_ratio"] = metric{hit, "ratio"}
	out["frozen.read_ratio"] = metric{read, "ratio"}

	out["runtime.alloc_kb_per_req"] = metric{float64(rt1.allocBytes-rt0.allocBytes) / 1024 / float64(t.attempted), "KiB"}
	out["runtime.gc_cycles_per_kreq"] = metric{float64(rt1.gcCycles-rt0.gcCycles) * 1000 / float64(t.attempted), "count"}
	out["runtime.gc_pause_ms"] = metric{float64(rt1.pauseNs-rt0.pauseNs) / 1e6, "ms"}
	return problems
}

// windows counts completions in each second of a pass.
func windows(done []time.Duration, d time.Duration) []int {
	n := make([]int, int(d/time.Second))
	for _, t := range done {
		if i := int(t / time.Second); i < len(n) {
			n[i]++
		}
	}
	return n
}

// meanLayers also get their per-request mean as a metric: on
// cold-large their cost sits in a few grammars of the menu, so their
// median does not move when those grammars get cheaper.  The report
// prints every layer's mean.
var meanLayers = []string{lAnalyze, lTable}

// meanName names the per-request mean of a layer timing.
func meanName(layer string) string { return strings.TrimSuffix(layer, "_us") + "_mean_us" }

// runtimeStats are process counters read around the measured run.
type runtimeStats struct {
	allocBytes, gcCycles, pauseNs uint64
	cpu                           time.Duration // user plus system CPU time
	maxRSSKiB                     int64         // peak resident set so far
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	// runtime/metrics exposes GC pauses only as a histogram; MemStats
	// has the exact total.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), pauseNs: ms.PauseTotalNs,
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKiB: ru.Maxrss, // Linux reports KiB
	}
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
