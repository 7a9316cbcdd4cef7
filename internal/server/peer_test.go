package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/frozen"
	"repro/internal/grammars"
)

// fleetNode is one test fleet member: its HTTP server, the Server, and
// the cluster handle (for ring lookups and direct stats).
type fleetNode struct {
	ts  *httptest.Server
	srv *Server
	cl  *cluster.Cluster
	url string
}

// newFleet boots n lalrd nodes on localhost that know each other
// through real HTTP transports.  Mutators tune each node's server and
// cluster configs before construction.
func newFleet(t *testing.T, n int, mutServer func(i int, cfg *Config), mutCluster func(i int, cfg *cluster.Config)) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	urls := make([]string, n)
	for i := range nodes {
		ts := httptest.NewUnstartedServer(http.NotFoundHandler())
		nodes[i] = &fleetNode{ts: ts, url: "http://" + ts.Listener.Addr().String()}
		urls[i] = nodes[i].url
	}
	for i, node := range nodes {
		ccfg := cluster.Config{
			Self:        node.url,
			Peers:       urls,
			Transport:   &cluster.HTTPTransport{},
			Verify:      frozen.Verify,
			PeerTimeout: 2 * time.Second,
			BackoffBase: time.Millisecond,
			BackoffCap:  5 * time.Millisecond,
		}
		if mutCluster != nil {
			mutCluster(i, &ccfg)
		}
		cl, err := cluster.New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg := Config{CacheBytes: 1 << 20, StoreDir: filepath.Join(t.TempDir(), "store"), Cluster: cl}
		if mutServer != nil {
			mutServer(i, &scfg)
		}
		srv := New(scfg)
		node.srv, node.cl = srv, cl
		node.ts.Config.Handler = srv
		node.ts.Start()
		srv.SetReady()
		t.Cleanup(func() {
			node.ts.Close() // stop traffic first, then the peer layer
			srv.Close()
		})
	}
	return nodes
}

// grammarOwnedBy finds a tinyGrammar variant (same language, distinct
// fingerprint) whose ring owner is the given node.
func grammarOwnedBy(t *testing.T, cl *cluster.Cluster, owner string) (src, fp string) {
	t.Helper()
	for i := 0; i < 64; i++ {
		src = tinyGrammar + strings.Repeat("\n", i)
		fp = repro.Fingerprint(src, repro.Options{})
		if cl.Owner(fp) == owner {
			return src, fp
		}
	}
	t.Fatal("no grammar variant owned by the wanted node")
	return "", ""
}

// waitForTable waits until the node behind ts serves fp's frozen
// table to peers.  Offers to ring owners are asynchronous.
func waitForTable(t *testing.T, ts *httptest.Server, fp string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, _ := get(t, ts, "/v1/peer/table/"+fp); resp.StatusCode == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("table %s never landed on %s", fp, ts.URL)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPeerTableEndpoints covers the peer-exchange HTTP surface
// directly: GET serves stored bytes, 404s an absent fingerprint, PUT
// accepts valid offers and rejects corrupt or lying ones.
func TestPeerTableEndpoints(t *testing.T) {
	ts := newTestServer(t, Config{CacheBytes: 1 << 20, StoreDir: filepath.Join(t.TempDir(), "store")})
	resp, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", resp.StatusCode)
	}
	fp := repro.Fingerprint(tinyGrammar, repro.Options{})

	resp, raw := get(t, ts, "/v1/peer/table/"+fp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer GET status = %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("peer GET content type = %q", ct)
	}
	if err := frozen.Verify(fp, raw); err != nil {
		t.Fatalf("served bytes do not verify: %v", err)
	}

	absent := strings.Repeat("0", 64)
	if resp, _ := get(t, ts, "/v1/peer/table/"+absent); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent table status = %d, want 404", resp.StatusCode)
	}

	// Offer the table to a second, empty node; it must serve frozen.
	ts2 := newTestServer(t, Config{StoreDir: filepath.Join(t.TempDir(), "store")})
	req, err := http.NewRequest(http.MethodPut, ts2.URL+"/v1/peer/table/"+fp, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusNoContent {
		t.Fatalf("peer PUT status = %d, want 204", putResp.StatusCode)
	}
	resp2, body2 := post(t, ts2, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Repro-Cache") != "frozen" {
		t.Fatalf("offered node served status %d outcome %q, want 200 frozen: %s",
			resp2.StatusCode, resp2.Header.Get("X-Repro-Cache"), body2)
	}

	// A corrupt offer must be rejected and plant nothing.
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 0x40
	req, err = http.NewRequest(http.MethodPut, ts2.URL+"/v1/peer/table/"+absent, bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	badResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt offer status = %d, want 400", badResp.StatusCode)
	}
	if m := metricz(t, ts2); m.Counters["peer_offers_rejected"] != 1 || m.Counters["peer_offers_accepted"] != 1 {
		t.Fatalf("offer counters = %v", m.Counters)
	}
}

// TestPeerGetQuarantinesCorruptFile: corruption discovered while
// serving a sibling is quarantined exactly like one found locally.
func TestPeerGetQuarantinesCorruptFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	ts := newTestServer(t, Config{CacheBytes: 1 << 20, StoreDir: dir})
	post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	fp := repro.Fingerprint(tinyGrammar, repro.Options{})

	p := filepath.Join(dir, fp+".frz")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, ts, "/v1/peer/table/"+fp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupt table GET status = %d, want 404", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, fp+".corrupt")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if m := metricz(t, ts); m.Counters["frozen_quarantined"] != 1 {
		t.Fatalf("frozen_quarantined = %d, want 1", m.Counters["frozen_quarantined"])
	}
}

// TestQuarantineAndRefreezeOnServe: a corrupt frozen table found on
// the serving path is quarantined, the request recomputes and serves
// identically, and the fresh result re-freezes a clean table.
func TestQuarantineAndRefreezeOnServe(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	// CacheBytes 0: every request walks the compute closure, so the
	// store is consulted each time.
	ts := newTestServer(t, Config{CacheBytes: 0, StoreDir: dir})
	resp1, body1 := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first status = %d", resp1.StatusCode)
	}
	fp := repro.Fingerprint(tinyGrammar, repro.Options{})
	p := filepath.Join(dir, fp+".frz")

	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 0x40
	if err := os.WriteFile(p, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	resp2, body2 := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-corruption status = %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("recomputed body differs from the original")
	}
	if out := resp2.Header.Get("X-Repro-Cache"); out != "miss" {
		t.Fatalf("post-corruption outcome = %q, want miss (recomputed)", out)
	}
	if _, err := os.Stat(filepath.Join(dir, fp+".corrupt")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if fresh, err := os.ReadFile(p); err != nil || !bytes.Equal(fresh, raw) {
		t.Fatalf("store was not re-frozen cleanly after recompute (err=%v, identical=%t)",
			err, bytes.Equal(fresh, raw))
	}
	m := metricz(t, ts)
	if m.Counters["frozen_quarantined"] != 1 {
		t.Fatalf("frozen_quarantined = %d, want 1", m.Counters["frozen_quarantined"])
	}

	// The re-frozen table serves the third request.
	resp3, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar})
	if out := resp3.Header.Get("X-Repro-Cache"); out != "frozen" {
		t.Fatalf("post-refreeze outcome = %q, want frozen", out)
	}
}

// TestFrozenRestart is the warm-restart story over real HTTP: a first
// Server life analyzes cold and freezes the table; a second life on
// the same store directory answers frozen with a byte-identical body
// and a trace entry without analysis phases (the pipeline never ran);
// the repeat is then a memory hit.
func TestFrozenRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	req := AnalyzeRequest{Grammar: danglingElse, Filename: "dangling-else.y"}

	first := httptest.NewServer(New(Config{CacheBytes: 1 << 20, StoreDir: dir}))
	resp, cold := post(t, first, "/v1/analyze", req)
	first.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Repro-Cache") != "miss" {
		t.Fatalf("first life: status %d outcome %q, want 200 miss", resp.StatusCode, resp.Header.Get("X-Repro-Cache"))
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.frz")); len(files) != 1 {
		t.Fatalf("store holds %d .frz files after the miss, want 1", len(files))
	}

	second := newTestServer(t, Config{CacheBytes: 1 << 20, StoreDir: dir})
	resp, body := post(t, second, "/v1/analyze", req)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Repro-Cache") != "frozen" {
		t.Fatalf("second life: status %d outcome %q, want 200 frozen", resp.StatusCode, resp.Header.Get("X-Repro-Cache"))
	}
	if !bytes.Equal(body, cold) {
		t.Fatal("frozen body differs from the computed one")
	}
	tr := fetchTrace(t, second, resp.Header.Get("X-Repro-Request-Id"))
	if len(tr.Entries) != 1 || tr.Entries[0].Outcome != "frozen" || len(tr.Entries[0].Phases) != 0 {
		t.Fatalf("frozen trace entries = %+v, want one frozen entry without phases", tr.Entries)
	}
	if m := metricz(t, second); m.Counters["frozen_hits"] < 1 {
		t.Fatalf("frozen_hits = %d, want >= 1", m.Counters["frozen_hits"])
	}
	resp, body = post(t, second, "/v1/analyze", req)
	if resp.Header.Get("X-Repro-Cache") != "hit" || !bytes.Equal(body, cold) {
		t.Fatalf("repeat: outcome %q, identical %t; want a byte-identical hit", resp.Header.Get("X-Repro-Cache"), bytes.Equal(body, cold))
	}
}

// TestFrozenRestartUnderNewFilename: the store keys by text and
// method, but the body names the grammar after the request's filename.
// After a restart, the same text under another filename recomputes
// (miss), byte-identical to a fresh analysis, and the re-freeze then
// serves that filename.
func TestFrozenRestartUnderNewFilename(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	_, want := post(t, newTestServer(t, Config{}), "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar, Filename: "b.y"})

	first := httptest.NewServer(New(Config{StoreDir: dir}))
	post(t, first, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar, Filename: "a.y"})
	first.Close()

	// CacheBytes 0: every request reaches the store.
	second := newTestServer(t, Config{StoreDir: dir})
	for _, out := range []string{"miss", "frozen"} {
		resp, body := post(t, second, "/v1/analyze", AnalyzeRequest{Grammar: tinyGrammar, Filename: "b.y"})
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Repro-Cache") != out {
			t.Fatalf("b.y after a.y was frozen: status %d outcome %q, want 200 %s",
				resp.StatusCode, resp.Header.Get("X-Repro-Cache"), out)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("b.y %s body differs from a fresh analysis of b.y", out)
		}
	}
}

// TestClusterPeerFill is the warm fleet path end to end over real
// HTTP: a storeless node computes, offers the table to its ring owner,
// and its next cold miss fills from that peer (X-Repro-Cache: peer)
// byte-identically.
func TestClusterPeerFill(t *testing.T) {
	nodes := newFleet(t, 2,
		func(i int, cfg *Config) {
			if i == 0 {
				// Node 0: no memory cache, no store — every request walks
				// the closure, and only the fleet can make it warm.
				cfg.CacheBytes = 0
				cfg.StoreDir = ""
			}
		},
		nil)
	a, b := nodes[0], nodes[1]
	src, fp := grammarOwnedBy(t, a.cl, b.url)

	resp1, body1 := post(t, a.ts, "/v1/analyze", AnalyzeRequest{Grammar: src})
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Repro-Cache") != "miss" {
		t.Fatalf("first request: status %d outcome %q, want 200 miss",
			resp1.StatusCode, resp1.Header.Get("X-Repro-Cache"))
	}
	waitForTable(t, b.ts, fp)

	resp2, body2 := post(t, a.ts, "/v1/analyze", AnalyzeRequest{Grammar: src})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request status = %d", resp2.StatusCode)
	}
	if out := resp2.Header.Get("X-Repro-Cache"); out != "peer" {
		t.Fatalf("second request outcome = %q, want peer", out)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("peer-filled body differs from the computed one")
	}
	m := metricz(t, a.ts)
	if m.Counters["peer_fills"] < 1 {
		t.Fatalf("peer_fills = %d, want >= 1", m.Counters["peer_fills"])
	}
	if m.Cluster == nil || m.Cluster.Fills < 1 {
		t.Fatalf("cluster stats missing fills: %+v", m.Cluster)
	}
	if mb := metricz(t, b.ts); mb.Counters["peer_offers_accepted"] < 1 || mb.Counters["peer_serves"] < 1 {
		t.Fatalf("owner counters = %v, want an accepted offer and a serve", mb.Counters)
	}
}

// TestPeerFillUnderNewFilename: the ring keys by text and method, but
// the body names the grammar after the request's filename.  Bytes the
// owner holds for the text under another filename answer a different
// request, so the node computes (miss), byte-identical to a fresh
// analysis, and the peer is charged nothing for serving them.
func TestPeerFillUnderNewFilename(t *testing.T) {
	nodes := newFleet(t, 2,
		func(i int, cfg *Config) {
			if i == 0 {
				cfg.CacheBytes = 0
				cfg.StoreDir = ""
			}
		},
		nil)
	a, b := nodes[0], nodes[1]
	src, fp := grammarOwnedBy(t, a.cl, b.url)
	_, want := post(t, newTestServer(t, Config{}), "/v1/analyze", AnalyzeRequest{Grammar: src, Filename: "b.y"})

	post(t, a.ts, "/v1/analyze", AnalyzeRequest{Grammar: src, Filename: "a.y"})
	waitForTable(t, b.ts, fp)
	resp, body := post(t, a.ts, "/v1/analyze", AnalyzeRequest{Grammar: src, Filename: "b.y"})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Repro-Cache") != "miss" {
		t.Fatalf("b.y after a.y was offered: status %d outcome %q, want 200 miss",
			resp.StatusCode, resp.Header.Get("X-Repro-Cache"))
	}
	if !bytes.Equal(body, want) {
		t.Fatal("b.y body differs from a fresh analysis of b.y")
	}
	m := metricz(t, a.ts)
	if m.Cluster == nil || m.Cluster.Fills < 1 {
		t.Fatalf("cluster stats = %+v, want the owner's bytes fetched", m.Cluster)
	}
	if st := m.Cluster.Peers[0]; m.Counters["peer_degrades"] != 0 || st.Errors != 0 || st.State != "closed" {
		t.Fatalf("peer charged for a name mismatch: peer_degrades %d, breaker %+v", m.Counters["peer_degrades"], st)
	}
}

// TestClusterPartitionEquivalence is the acceptance property: with
// every peer exchange faulted, every request still succeeds as a plain
// local miss, byte-identical to a single-node server — and once the
// fault clears, the breaker recovers through an observable half-open
// probe.
func TestClusterPartitionEquivalence(t *testing.T) {
	single := newTestServer(t, Config{CacheBytes: 1 << 20})
	nodes := newFleet(t, 2, nil, func(i int, cfg *cluster.Config) {
		cfg.Retries = -1
		cfg.HedgeAfter = -1
		cfg.BreakerFailures = 2
		cfg.BreakerCooldown = 100 * time.Millisecond
	})
	a := nodes[0]

	restore := cluster.InjectFault(&cluster.Fault{Mode: cluster.FaultError})
	partitioned := true
	defer func() {
		if partitioned {
			restore()
		}
	}()

	grammars := make([]string, 4)
	for i := range grammars {
		grammars[i] = tinyGrammar + strings.Repeat("\n", i+1)
	}
	for i, src := range grammars[:3] {
		want, wantBody := post(t, single, "/v1/analyze", AnalyzeRequest{Grammar: src})
		resp, body := post(t, a.ts, "/v1/analyze", AnalyzeRequest{Grammar: src})
		if want.StatusCode != http.StatusOK || resp.StatusCode != http.StatusOK {
			t.Fatalf("grammar %d: single=%d partitioned=%d, want 200/200", i, want.StatusCode, resp.StatusCode)
		}
		if out := resp.Header.Get("X-Repro-Cache"); out != "miss" {
			t.Fatalf("grammar %d under partition: outcome %q, want miss", i, out)
		}
		if !bytes.Equal(wantBody, body) {
			t.Fatalf("grammar %d: partitioned body differs from single-node body", i)
		}
	}
	m := metricz(t, a.ts)
	if m.Cluster == nil || len(m.Cluster.Peers) != 1 {
		t.Fatalf("cluster stats = %+v, want one remote peer", m.Cluster)
	}
	if st := m.Cluster.Peers[0]; st.State != "open" || st.Trips < 1 {
		t.Fatalf("peer breaker under partition = %+v, want open with >=1 trip", st)
	}
	if m.Counters["peer_degrades"] < 1 {
		t.Fatalf("peer_degrades = %d, want >= 1", m.Counters["peer_degrades"])
	}

	// The partition heals; after the cooldown, the next fetch is the
	// half-open probe (the peer's authoritative 404 is a success), and
	// the breaker closes.
	restore()
	partitioned = false
	time.Sleep(150 * time.Millisecond)
	if resp, _ := post(t, a.ts, "/v1/analyze", AnalyzeRequest{Grammar: grammars[3]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status = %d", resp.StatusCode)
	}
	m = metricz(t, a.ts)
	if st := m.Cluster.Peers[0]; st.State != "closed" || st.Probes < 1 {
		t.Fatalf("peer breaker after recovery = %+v, want closed with >=1 probe", st)
	}

	// The breaker's journey is visible in the Prometheus exposition.
	resp, prom := get(t, a.ts, "/metricz?format=prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom status = %d", resp.StatusCode)
	}
	for _, want := range []string{"lalrd_peer_state", "lalrd_peer_events_total", "lalrd_peer_breaker_trips_total"} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("prom exposition missing %s", want)
		}
	}
}

// TestClusterNodeKill is the fleet story under concurrent load: three
// nodes replay the corpus cold, offers converge on their ring owners,
// a warm replay on other nodes fills from peers, then one node dies
// and grammars it owns go to the survivors.  Every request must
// succeed with a body byte-identical to every other answer for the
// same grammar, and some survivor's breaker must trip for the dead
// node.
func TestClusterNodeKill(t *testing.T) {
	nodes := newFleet(t, 3, nil, func(i int, cfg *cluster.Config) {
		// One retry keeps the dead-node phase brisk; the breaker trips
		// after two failures and stays open long enough to observe.
		cfg.Retries = 1
		cfg.BreakerFailures = 2
		cfg.BreakerCooldown = time.Minute
	})
	byURL := map[string]*fleetNode{}
	for _, n := range nodes {
		byURL[n.url] = n
	}

	type job struct {
		node      *fleetNode
		name, src string
	}
	var (
		mu       sync.Mutex
		bodies   = map[string][]byte{} // grammar name -> first body seen
		outcomes = map[string]int{}
	)
	analyze := func(j job) {
		req, _ := json.Marshal(AnalyzeRequest{Grammar: j.src, Filename: j.name + ".y"})
		resp, err := http.Post(j.node.url+"/v1/analyze", "application/json", bytes.NewReader(req))
		if err != nil {
			t.Errorf("%s on %s: %v", j.name, j.node.url, err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("%s on %s: status %d, %v", j.name, j.node.url, resp.StatusCode, err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		outcomes[resp.Header.Get("X-Repro-Cache")]++
		if prev, ok := bodies[j.name]; !ok {
			bodies[j.name] = body
		} else if !bytes.Equal(prev, body) {
			t.Errorf("%s on %s: body differs from an earlier answer", j.name, j.node.url)
		}
	}
	// replay sends the jobs from six concurrent clients and returns the
	// outcome counts of this round.
	replay := func(round string, jobs []job) map[string]int {
		t.Helper()
		mu.Lock()
		outcomes = map[string]int{}
		mu.Unlock()
		ch := make(chan job)
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range ch {
					analyze(j)
				}
			}()
		}
		for _, j := range jobs {
			ch <- j
		}
		close(ch)
		wg.Wait()
		if t.Failed() {
			t.Fatalf("%s replay: client-visible errors", round)
		}
		return outcomes
	}

	corpus := grammars.All()
	var jobs []job
	for i, g := range corpus {
		jobs = append(jobs, job{nodes[i%3], g.Name, g.Src})
	}
	replay("cold", jobs)
	for _, g := range corpus {
		fp := repro.Fingerprint(g.Src, repro.Options{})
		waitForTable(t, byURL[nodes[0].cl.Owner(fp)].ts, fp)
	}

	// Each grammar goes to a node that never saw it: the ring owner
	// answers from its store, every other node fills from the owner.
	jobs = jobs[:0]
	for i, g := range corpus {
		jobs = append(jobs, job{nodes[(i+1)%3], g.Name, g.Src})
	}
	if out := replay("warm", jobs); out["peer"] < 1 || out["peer"]+out["frozen"] != len(corpus) {
		t.Fatalf("warm replay outcomes = %v, want only peer fills and owner store reads", out)
	}

	victim, survivors := nodes[2], nodes[:2]
	victim.ts.Close()
	// Variants owned by the dead node: each fetch tries the corpse,
	// fails and degrades to a local compute.  The corpus rides along on
	// the survivors to re-prove byte identity under the same load.
	jobs = jobs[:0]
	for i := 1; len(jobs) < 4 && i < 256; i++ {
		src := corpus[0].Src + strings.Repeat("\n", i)
		if nodes[0].cl.Owner(repro.Fingerprint(src, repro.Options{})) == victim.url {
			jobs = append(jobs, job{survivors[len(jobs)%2], fmt.Sprintf("%s-v%d", corpus[0].Name, i), src})
		}
	}
	if len(jobs) < 4 {
		t.Fatal("too few grammar variants owned by the dead node")
	}
	variants := len(jobs)
	for i, g := range corpus {
		jobs = append(jobs, job{survivors[i%2], g.Name, g.Src})
	}
	if out := replay("degraded", jobs); out["miss"] < variants {
		t.Fatalf("degraded replay outcomes = %v, want the %d dead-owned variants computed locally", out, variants)
	}

	tripped := false
	for _, n := range survivors {
		for _, ps := range n.cl.Stats().Peers {
			tripped = tripped || (ps.Peer == victim.url && ps.Trips >= 1)
		}
	}
	if !tripped {
		t.Fatalf("no survivor's breaker tripped for the dead node %s", victim.url)
	}
}

// TestReadyzLifecycle: /readyz answers 503 before SetReady and after
// BeginDrain, 200 in between; /healthz stays 200 throughout (liveness
// is not readiness).
func TestReadyzLifecycle(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	assertReadyz := func(wantCode int, wantStatus string) {
		t.Helper()
		resp, body := get(t, ts, "/readyz")
		if resp.StatusCode != wantCode || !strings.Contains(string(body), wantStatus) {
			t.Fatalf("/readyz = %d %s, want %d %q", resp.StatusCode, body, wantCode, wantStatus)
		}
		if h, _ := get(t, ts, "/healthz"); h.StatusCode != http.StatusOK {
			t.Fatalf("/healthz = %d, want 200 always", h.StatusCode)
		}
	}
	assertReadyz(http.StatusServiceUnavailable, "starting")
	srv.SetReady()
	assertReadyz(http.StatusOK, "ready")
	srv.BeginDrain()
	assertReadyz(http.StatusServiceUnavailable, "draining")
	if !srv.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
}

// TestDrainUnderLoad pins the graceful-drain contract: while a request
// is genuinely inflight, (1) an over-admission request gets 429 with
// Retry-After, (2) BeginDrain flips /readyz to 503 BEFORE the inflight
// request finishes, and (3) the inflight request then completes 200.
func TestDrainUnderLoad(t *testing.T) {
	srv := New(Config{CacheBytes: 1 << 20, MaxInflight: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	srv.SetReady()

	// Occupy the singleflight slot for tinyGrammar's key so the HTTP
	// request below blocks inside its handler, deterministically
	// inflight until the test releases it.
	fp := repro.Fingerprint(tinyGrammar, repro.Options{})
	key := cache.Key("analyze", fp, "grammar.y")
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		srv.cache.GetOrCompute(key, func() ([]byte, error) {
			close(started)
			<-block
			return []byte("{}\n"), nil
		})
	}()
	<-started

	type result struct {
		status  int
		outcome string
	}
	inflightDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
			strings.NewReader(fmt.Sprintf(`{"grammar": %q}`, tinyGrammar)))
		if err != nil {
			inflightDone <- result{}
			return
		}
		resp.Body.Close()
		inflightDone <- result{resp.StatusCode, resp.Header.Get("X-Repro-Cache")}
	}()

	// Wait until that request holds the one admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.inflight) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never took the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	// (1) Admission beyond max-inflight: 429 with Retry-After.
	resp, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: danglingElse})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-admission status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without a Retry-After header")
	}

	// (2) Drain flips readiness while the request is still inflight.
	srv.BeginDrain()
	if r, body := get(t, ts, "/readyz"); r.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "draining") {
		t.Fatalf("/readyz during drain = %d %s, want 503 draining", r.StatusCode, body)
	}
	select {
	case r := <-inflightDone:
		t.Fatalf("inflight request finished before the drain assertion: %+v", r)
	default:
	}

	// (3) The inflight request completes normally.
	close(block)
	r := <-inflightDone
	if r.status != http.StatusOK || r.outcome != "coalesced" {
		t.Fatalf("drained inflight request = %+v, want 200 coalesced", r)
	}
}
