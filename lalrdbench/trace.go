package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/frozen"
	"repro/internal/grammar"
	"repro/internal/guard"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/packed"
	"repro/internal/server"
)

// Per-layer timings of the traced replay, in the order analyzeOne
// calls the layers.  The cluster pair is not on a request's path: it
// is a second node's fill of a frozen read, next to the local
// recompute it replaces.
const (
	lDecode      = "server.decode_us"
	lFingerprint = "cache.fingerprint_us"
	lLoad        = "frozen.load_us"
	lParse       = "grammar.parse_us"
	lAnalyze     = "grammar.analyze_us"
	lLR0         = "lr0.build_us"
	lCore        = "core.lookahead_us"
	lTable       = "lalrtable.build_us"
	lRecorder    = "obs.recorder_us"
	lExport      = "export.build_us"
	lEncode      = "server.encode_us"
	lPack        = "packed.pack_us"
	lFreeze      = "frozen.freeze_us"
	lPut         = "frozen.put_us"
	lFill        = "cluster.fill_us"
	lRecompute   = "cluster.recompute_us"
	lResidual    = "server.residual_us"

	cStates = "lr0.states_per_req"
	cEdges  = "core.relation_edges_per_req"
	cBody   = "server.body_kb_per_req"
	cFile   = "frozen.file_kb_per_req"
)

var (
	hitLayers   = []string{lDecode, lFingerprint}
	missLayers  = []string{lParse, lAnalyze, lLR0, lCore, lTable, lRecorder, lExport, lEncode}
	storeLayers = []string{lPack, lFreeze, lPut, lLoad, lFill, lRecompute}
	timedLayers = append(append(append([]string{}, hitLayers...), missLayers...), storeLayers...)
	counts      = []string{cStates, cEdges, cBody, cFile}
)

// expectedLayers is the traced-run coverage contract: the timings and
// counts that must have samples on w, and only those.
func expectedLayers(w *workload) map[string]bool {
	want := map[string]bool{cBody: true}
	for _, l := range hitLayers {
		want[l] = true
	}
	if w.name != warmHits {
		for _, l := range append([]string{cStates, cEdges}, missLayers...) {
			want[l] = true
		}
	}
	if w.store {
		for _, l := range append([]string{cFile}, storeLayers...) {
			want[l] = true
		}
	}
	return want
}

// samples holds one value per request on which a layer ran.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) since(name string, t time.Time) float64 {
	us := float64(time.Since(t).Nanoseconds()) / 1e3
	s.add(name, us)
	return us
}

// traced is what the traced replay measured.
type traced struct {
	s        samples
	pathSum  []float64 // per request: sum of the layers on the server's path, µs
	failed   int
	firstErr string
}

// replay re-runs the first w.traceN requests of the sequence with the
// same number of clients, but calls the layers lalrd calls directly,
// in analyzeOne's order, and times each call from here.  Nothing is
// timed inside the program.  Frozen reads load from storeDir, the
// measured server's store; misses put into a throwaway store, since the
// measured run already froze the same texts.  A second in-process
// fleet node, whose only peer is the server at peerURL, fetches the
// fingerprint of every frozen read.
func replay(w *workload, chk *checker, n int, storeDir, replayDir, peerURL string) (*traced, error) {
	var (
		store, spare *frozen.Store
		fleet        *cluster.Cluster
		err          error
	)
	if w.store {
		if store, err = frozen.OpenStore(storeDir); err != nil {
			return nil, err
		}
		if spare, err = frozen.OpenStore(replayDir); err != nil {
			return nil, err
		}
		self := "http://127.0.0.1:1" // never dialled: a node does not fetch from itself
		fleet, err = cluster.New(cluster.Config{
			Self:       self,
			Peers:      []string{peerURL, self},
			Transport:  &cluster.HTTPTransport{Client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}},
			Retries:    -1,
			HedgeAfter: -1,
		})
		if err != nil {
			return nil, err
		}
		defer fleet.Close()
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		all  = &traced{s: samples{}}
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &traced{s: samples{}}
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				r := w.at(i)
				sum, err := replayOne(w, chk, r, t.s, store, spare, fleet)
				if err != nil {
					t.failed++
					if t.firstErr == "" {
						t.firstErr = fmt.Sprintf("traced request %d (%s): %v", i, w.grammars[r.g].name, err)
					}
					continue
				}
				t.pathSum = append(t.pathSum, sum)
			}
			mu.Lock()
			defer mu.Unlock()
			for k, v := range t.s {
				all.s[k] = append(all.s[k], v...)
			}
			all.pathSum = append(all.pathSum, t.pathSum...)
			all.failed += t.failed
			if all.firstErr == "" {
				all.firstErr = t.firstErr
			}
		}()
	}
	wg.Wait()
	return all, nil
}

// replayOne runs one request's layers and returns the sum of those on
// the server's path.
func replayOne(w *workload, chk *checker, r request, s samples, store, spare *frozen.Store, fleet *cluster.Cluster) (float64, error) {
	body := w.body(r)
	t := time.Now()
	var req server.AnalyzeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	sum := s.since(lDecode, t)
	if err != nil {
		return 0, err
	}
	t = time.Now()
	fp := cache.Fingerprint(req.Grammar, method)
	sum += s.since(lFingerprint, t)

	switch r.kind {
	case kindHit:
		ref := chk.refs[r.g].Load()
		if ref == nil {
			return 0, fmt.Errorf("no reference body")
		}
		s.add(cBody, float64(len(ref.body))/1024)
		return sum, nil
	case kindRead:
		t = time.Now()
		ft, err := store.Load(fp)
		sum += s.since(lLoad, t)
		if err != nil {
			return 0, err
		}
		if !chk.check(r, fp, ft.Body) {
			return 0, fmt.Errorf("frozen body differs from the reference")
		}
		s.add(cBody, float64(len(ft.Body))/1024)
		return sum, fleetFill(r, req, fp, chk, s, fleet)
	}

	t = time.Now()
	g, err := repro.LoadGrammar(req.Filename, req.Grammar)
	sum += s.since(lParse, t)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bud := guard.New(ctx, guard.Limits{}, nil)
	bud.SetOwner(g.Name())
	t = time.Now()
	an := grammar.Analyze(g)
	sum += s.since(lAnalyze, t)
	t = time.Now()
	a, err := lr0.NewBudgeted(g, an, nil, bud)
	sum += s.since(lLR0, t)
	if err != nil {
		return 0, err
	}
	t = time.Now()
	dp, err := core.ComputeWith(a, core.Options{Budget: bud})
	sum += s.since(lCore, t)
	if err != nil {
		return 0, err
	}
	t = time.Now()
	tables, err := lalrtable.BuildBudgeted(a, dp.Sets(), nil, bud)
	sum += s.since(lTable, t)
	if err != nil {
		return 0, err
	}

	// The server analyses with a per-request recorder; its cost is the
	// same analysis with the recorder minus without.
	t = time.Now()
	if _, err := repro.Analyze(g, repro.Options{Context: ctx}); err != nil {
		return 0, err
	}
	plain := time.Since(t)
	t = time.Now()
	if _, err := repro.Analyze(g, repro.Options{Context: ctx, Recorder: repro.NewRecorder()}); err != nil {
		return 0, err
	}
	overhead := float64((time.Since(t) - plain).Nanoseconds()) / 1e3
	s.add(lRecorder, overhead)
	sum += overhead

	t = time.Now()
	rep := export.Build(a, dp.Sets(), tables, dp, method)
	sum += s.since(lExport, t)
	t = time.Now()
	out, err := json.MarshalIndent(server.AnalyzeResponse{
		Schema: server.Schema, Kind: "analyze", Fingerprint: fp, Method: method, Report: rep,
	}, "", "  ")
	out = append(out, '\n')
	sum += s.since(lEncode, t)
	if err != nil {
		return 0, err
	}
	if !chk.check(r, fp, out) {
		return 0, fmt.Errorf("encoded body differs from the reference")
	}
	st := dp.Stats()
	s.add(cStates, float64(len(a.States)))
	s.add(cEdges, float64(st.ReadsEdges+st.IncludesEdges))
	s.add(cBody, float64(len(out))/1024)
	if store == nil {
		return sum, nil
	}

	t = time.Now()
	p := packed.Pack(tables)
	sum += s.since(lPack, t)
	t = time.Now()
	next := make([]int32, len(p.Next))
	for i, act := range p.Next {
		next[i] = int32(act)
	}
	raw := frozen.Freeze(&frozen.TableData{
		NumStates: tables.NumStates, Fingerprint: fp,
		DefaultReduce: p.DefaultReduce, Base: p.Base, Next: next, Check: p.Check,
		GotoBase: p.GotoBase, GotoNext: p.GotoNext, GotoCheck: p.GotoCheck,
		Body: out,
	})
	sum += s.since(lFreeze, t)
	t = time.Now()
	err = spare.PutBytes(fp, raw)
	sum += s.since(lPut, t)
	s.add(cFile, float64(len(raw))/1024)
	return sum, err
}

// fleetFill times a second node's peer fill of a frozen read (fetch
// from the ring owner plus decode) next to recomputing the same
// grammar locally.  Neither is on the measured server's path.
func fleetFill(r request, req server.AnalyzeRequest, fp string, chk *checker, s samples, fleet *cluster.Cluster) error {
	t := time.Now()
	raw, _, err := fleet.Fetch(context.Background(), fp)
	if err != nil {
		return fmt.Errorf("peer fill: %w", err)
	}
	ft, err := frozen.Decode(raw)
	s.since(lFill, t)
	if err != nil {
		return err
	}
	if ft.Fingerprint != fp || !chk.check(r, fp, ft.Body) {
		return fmt.Errorf("peer fill body differs from the reference")
	}

	t = time.Now()
	g, err := repro.LoadGrammar(req.Filename, req.Grammar)
	if err != nil {
		return err
	}
	res, err := repro.Analyze(g, repro.Options{})
	if err != nil {
		return err
	}
	rep := export.Build(res.Automaton, res.Lookahead, res.Tables, res.DP, method)
	_, err = json.MarshalIndent(server.AnalyzeResponse{
		Schema: server.Schema, Kind: "analyze", Fingerprint: fp, Method: method, Report: rep,
	}, "", "  ")
	s.since(lRecompute, t)
	return err
}
