package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cliguard"
	"repro/internal/server"
)

// clients is the closed loop's size: two clients, one connection each,
// one per CPU of the machine the bounds were measured on.
const clients = 2

// method is the look-ahead method every request uses (the default).
const method = "deremer-pennello"

// node is one in-process lalrd: server.New with lalrd's defaults on a
// loopback listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	errc chan error
}

func startNode(storeDir string) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		CacheBytes: int64(cliguard.DefaultCacheSize),
		StoreDir:   storeDir,
		// lalrd logs one access record per request; format it the same
		// way, into io.Discard.
		AccessLog: cliguard.LogFormat("text").Logger(io.Discard),
	})
	n := &node{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	go func() { n.errc <- n.hs.Serve(ln) }()
	srv.SetReady()
	return n, nil
}

// stop shuts the node down and waits for its serve loop to return.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	n.srv.Close()
	return err
}

// client is one closed-loop client with its own connection.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}, url: url + "/v1/analyze"}
}

// post sends one analyze request.  The returned body aliases the
// client's buffer until the next call.
func (c *client) post(body []byte) (status int, outcome string, resp []byte, err error) {
	r, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer r.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(r.Body); err != nil {
		return r.StatusCode, "", nil, err
	}
	return r.StatusCode, r.Header.Get("X-Repro-Cache"), c.buf.Bytes(), nil
}

// checker holds one reference body per grammar and compares every
// response with it.  Bodies of one grammar must be byte-identical
// apart from the fingerprint, which must be the request text's.  The
// reference itself is validated by the oracle after the run.
type checker struct {
	w    *workload
	refs []atomic.Pointer[reference]
}

type reference struct {
	body []byte
	text string
	fpAt int
}

var fpKey = []byte(`"fingerprint": "`)

func newChecker(w *workload) *checker {
	return &checker{w: w, refs: make([]atomic.Pointer[reference], len(w.grammars))}
}

// check reports whether body is a correct answer to r.
func (c *checker) check(r request, fp string, body []byte) bool {
	head := body
	if len(head) > 256 {
		head = head[:256]
	}
	k := bytes.Index(head, fpKey)
	if k < 0 {
		return false
	}
	k += len(fpKey)
	if len(body) < k+len(fp) || string(body[k:k+len(fp)]) != fp {
		return false
	}
	ref := c.refs[r.g].Load()
	if ref == nil {
		c.refs[r.g].CompareAndSwap(nil, &reference{body: bytes.Clone(body), text: c.w.text(r), fpAt: k})
		ref = c.refs[r.g].Load()
	}
	return len(body) == len(ref.body) && k == ref.fpAt &&
		bytes.Equal(body[:k], ref.body[:k]) && bytes.Equal(body[k+len(fp):], ref.body[k+len(fp):])
}

// tally is what one closed-loop pass observed.
type tally struct {
	attempted, failed int
	lat               []time.Duration
	latG              []int           // grammar of each latency sample
	latK              []kind          // expected outcome of each latency sample
	done              []time.Duration // completion times, from the start of the pass
	perGrammar        []int           // responses per grammar
	outcomes          []outcome       // X-Repro-Cache of every correct response
	firstErr          string          // first failure, for the report
	elapsed           time.Duration   // start to last completion
}

// outcome is the cache outcome the server reported for request i.
type outcome struct {
	i   int
	out kind
}

// drive runs a closed loop of `clients` clients over reqs(i) until
// either n requests were sent (n > 0) or the duration passed.  The
// requests sent are always reqs(0) .. reqs(attempted-1).  A response
// whose X-Repro-Cache is not the request's expected kind is a failure:
// no request of a generated sequence can legitimately be coalesced,
// answered from another kind, or served by a peer.
func drive(cs []*client, w *workload, chk *checker, reqs func(i int) request, n int, d time.Duration) *tally {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		wg       sync.WaitGroup
		t        = &tally{perGrammar: make([]int, len(w.grammars))}
		start    = time.Now()
		deadline = start.Add(d)
		lastEnd  time.Time
	)
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			local := &tally{perGrammar: make([]int, len(w.grammars))}
			var end time.Time
			for {
				i := int(next.Add(1) - 1)
				if (n > 0 && i >= n) || (n == 0 && time.Now().After(deadline)) {
					break
				}
				r := reqs(i)
				body := w.body(r)
				fp := cache.Fingerprint(w.text(r), method)
				t0 := time.Now()
				status, out, resp, err := c.post(body)
				end = time.Now()
				local.lat = append(local.lat, end.Sub(t0))
				local.latG = append(local.latG, r.g)
				local.latK = append(local.latK, r.kind)
				local.done = append(local.done, end.Sub(start))
				local.attempted++
				local.perGrammar[r.g]++
				switch {
				case err != nil:
					local.fail(fmt.Sprintf("request %d (%s): %v", i, w.grammars[r.g].name, err))
					continue
				case status != http.StatusOK:
					local.fail(fmt.Sprintf("request %d (%s): status %d: %.200s", i, w.grammars[r.g].name, status, resp))
					continue
				case !chk.check(r, fp, resp):
					local.fail(fmt.Sprintf("request %d (%s): body differs from the grammar's reference body", i, w.grammars[r.g].name))
					continue
				case out != r.kind.String():
					local.fail(fmt.Sprintf("request %d (%s): X-Repro-Cache %q, want %q", i, w.grammars[r.g].name, out, r.kind))
					continue
				}
				local.outcomes = append(local.outcomes, outcome{i, r.kind})
			}
			mu.Lock()
			defer mu.Unlock()
			t.merge(local)
			if end.After(lastEnd) {
				lastEnd = end
			}
		}(c)
	}
	wg.Wait()
	t.elapsed = lastEnd.Sub(start)
	return t
}

func (t *tally) fail(msg string) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = msg
	}
}

// ratios returns the shares of hits and of frozen reads among requests
// 0 .. n-1.  A failed request counts as neither.
func (t *tally) ratios(n int) (hit, read float64) {
	var hits, reads int
	for _, o := range t.outcomes {
		if o.i >= n {
			continue
		}
		switch o.out {
		case kindHit:
			hits++
		case kindRead:
			reads++
		}
	}
	return ratio(hits, n), ratio(reads, n)
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.lat = append(t.lat, o.lat...)
	t.latG = append(t.latG, o.latG...)
	t.latK = append(t.latK, o.latK...)
	t.done = append(t.done, o.done...)
	for g, k := range o.perGrammar {
		t.perGrammar[g] += k
	}
	t.outcomes = append(t.outcomes, o.outcomes...)
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}
