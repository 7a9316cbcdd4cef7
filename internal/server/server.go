// Package server is the HTTP surface of the analysis pipeline: a
// long-running daemon (cmd/lalrd) serving the versioned repro-api/1
// protocol.  The pipeline is a pure function of (grammar text,
// method), so the server is built around a content-addressed response
// cache (internal/cache): the cache key is the canonical fingerprint
// of the inputs, the value is the exact response body, and concurrent
// identical requests share one computation via singleflight.
//
// Untrusted inputs are governed the same way the CLIs govern them —
// every request runs under a guard.Budget assembled from the server's
// configured ceilings tightened by the request's own limits — and
// faults are isolated per request: a limit trip is a 422, a deadline a
// 504, a contained panic a 500, and in every case the server keeps
// serving.  Admission control bounds concurrent analyses with a
// semaphore; requests beyond -max-inflight are rejected with 429
// instead of queuing without bound.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/driver"
	"repro/internal/export"
	"repro/internal/frozen"
	"repro/internal/grammar"
	"repro/internal/guard"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/packed"
	"repro/internal/telemetry"
)

// maxBodyBytes bounds a request body; grammars are text, and the
// largest corpus grammar is under 64 KiB, so 16 MiB is generous.
const maxBodyBytes = 16 << 20

// Config assembles a Server.
type Config struct {
	// CacheBytes is the response-cache byte budget (0 caches nothing;
	// the server still works, every request computes).
	CacheBytes int64
	// MaxInflight bounds concurrently admitted analysis requests;
	// excess requests are rejected with 429.  0 is unlimited.
	MaxInflight int
	// Limits are the server-wide per-request resource ceilings.
	// Requests may tighten them, never widen them.
	Limits guard.Limits
	// RequestTimeout bounds each request's pipeline wall clock (0 =
	// none).  A request's timeout_ms may tighten it.
	RequestTimeout time.Duration
	// StoreDir, when non-empty, enables the on-disk frozen-table store
	// (internal/frozen): analyze misses freeze their packed tables and
	// canonical body under the content fingerprint, and later requests
	// for the same fingerprint — including after a restart — are served
	// from the store without re-analysis (X-Repro-Cache: frozen).
	StoreDir string
	// Cluster, when non-nil, is the fleet peer layer (internal/cluster):
	// an analyze miss asks the fingerprint's ring owner for its frozen
	// bytes before computing locally (X-Repro-Cache: peer), computed
	// tables are offered to their owner, and /v1/peer/table/{fp} serves
	// this node's store to siblings.  The Server takes ownership:
	// Close() closes it.
	Cluster *cluster.Cluster
	// Logf receives server-side diagnostics (contained panic stacks);
	// nil discards them.
	Logf func(format string, args ...any)
	// AccessLog receives one structured record per request (request id,
	// status, latency, cache outcome, guard verdict); nil disables
	// access logging.  cmd/lalrd wires it to stderr as text or JSON per
	// -log-format.
	AccessLog *slog.Logger
}

// Server handles the repro-api/1 endpoints.  It is an http.Handler;
// the caller owns the listener and its lifecycle (cmd/lalrd pairs it
// with http.Server and drains in-flight requests on shutdown).
type Server struct {
	cfg      Config
	cache    *cache.Cache
	store    *frozen.Store    // nil without -store-dir
	cluster  *cluster.Cluster // nil without -peers
	mux      *http.ServeMux
	inflight chan struct{}
	start    time.Time
	build    BuildInfo

	ids         *telemetry.IDGen
	lat         *telemetry.Set
	ring        *telemetry.Ring
	inflightNow atomic.Int64 // all HTTP requests currently inside ServeHTTP
	ready       atomic.Bool  // /readyz: flipped on by SetReady once listening
	draining    atomic.Bool  // /readyz: flipped on by BeginDrain at shutdown

	mu       sync.Mutex
	counters map[string]int64
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		cache:    cache.New(cfg.CacheBytes),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		build:    readBuildInfo(),
		ids:      telemetry.NewIDGen(),
		lat:      telemetry.NewSet(),
		ring:     telemetry.NewRing(0, 0),
		counters: make(map[string]int64),
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.StoreDir != "" {
		st, err := frozen.OpenStore(cfg.StoreDir)
		if err != nil {
			// A broken store dir degrades to storeless serving; the
			// server must come up regardless.
			s.logf("frozen store disabled: %v", err)
		} else {
			s.store = st
		}
	}
	if cfg.Cluster != nil {
		s.cluster = cfg.Cluster
		s.cluster.SetObserve(s.observePeer)
	}
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/lint", s.handleLint)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/peer/table/{fp}", s.handlePeerGet)
	s.mux.HandleFunc("PUT /v1/peer/table/{fp}", s.handlePeerPut)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	s.mux.HandleFunc("GET /debugz/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debugz/traces/{id}", s.handleTraceByID)
	return s
}

// ServeHTTP is the telemetry envelope around every endpoint: it mints
// the request ID (echoed as X-Repro-Request-Id), opens the trace the
// handlers annotate through the request context, and on the way out
// feeds the endpoint and outcome latency histograms, retains /v1/*
// traces in the debug ring, and emits the access-log record.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := s.ids.Next()
	start := time.Now()
	tr := telemetry.NewTrace(id, r.Method, r.URL.Path, start)
	w.Header().Set("X-Repro-Request-Id", id)
	sw := &statusWriter{ResponseWriter: w}

	s.inflightNow.Add(1)
	s.mux.ServeHTTP(sw, r.WithContext(withTrace(r.Context(), tr)))
	s.inflightNow.Add(-1)

	latency := time.Since(start)
	status := sw.status
	if !sw.wrote {
		status = http.StatusOK
	}
	tr.Finish(status, latency)
	s.lat.Observe("endpoint/"+endpointLabel(r.URL.Path), latency)
	if out := tr.Outcome(); out != "" {
		s.lat.Observe("outcome/"+out, latency)
	}
	// Only analysis traffic enters the ring: a monitoring scrape every
	// few seconds would otherwise flush the window of interesting
	// traces between incidents, and steady peer-exchange chatter in a
	// fleet would do the same.
	if strings.HasPrefix(r.URL.Path, "/v1/") && !strings.HasPrefix(r.URL.Path, "/v1/peer/") {
		s.ring.Add(tr)
	}
	s.logAccess(r, tr, status, latency)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// addCounter bumps a server-lifetime counter.
func (s *Server) addCounter(name string, delta int64) {
	s.mu.Lock()
	s.counters[name] += delta
	s.mu.Unlock()
}

// admitInflight takes an admission slot, or rejects the request with
// 429 when the server is at -max-inflight.
func (s *Server) admitInflight(w http.ResponseWriter, r *http.Request) bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		s.addCounter("admission_rejects", 1)
		traceFrom(r.Context()).SetVerdict("overloaded")
		// Overload is transient by construction (slots free as inflight
		// analyses finish), so tell well-behaved clients when to come
		// back instead of letting them hammer the admission gate.
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Schema: Schema, Kind: "error",
			Error: ErrorPayload{
				Kind:    "overloaded",
				Message: fmt.Sprintf("server is at max-inflight (%d concurrent analyses); retry later", s.cfg.MaxInflight),
			},
		})
		return false
	}
}

func (s *Server) releaseInflight() {
	if s.inflight != nil {
		<-s.inflight
	}
}

// admit maps a request's limits onto the effective guard.Limits: the
// server's ceilings, tightened field-wise by the request's.
func (s *Server) admit(l *LimitsPayload) guard.Limits {
	eff := s.cfg.Limits
	if l == nil {
		return eff
	}
	eff.MaxStates = tighten(eff.MaxStates, l.MaxStates)
	eff.MaxLR1States = tighten(eff.MaxLR1States, l.MaxLR1States)
	eff.MaxTableEntries = tighten(eff.MaxTableEntries, l.MaxTableEntries)
	eff.MaxRelationEdges = tighten(eff.MaxRelationEdges, l.MaxRelationEdges)
	return eff
}

// tighten combines a server ceiling with a request ceiling: zero means
// unlimited on either side, and the smaller positive value wins.
func tighten(server, request int) int {
	if request <= 0 {
		return server
	}
	if server <= 0 || request < server {
		return request
	}
	return server
}

// computeContext derives the pipeline context for one computation.
// It detaches from the client's cancellation — a computed result is
// cacheable and may be shared by singleflight joiners, so one
// disconnecting client must not poison it — but keeps a deadline: the
// server's per-request timeout tightened by the request's timeout_ms
// and by any deadline already on parent (a batch entry's parent is the
// batch context, whose deadline must bound each entry's compute, not
// just dispatch; context.WithoutCancel would otherwise drop it).
func (s *Server) computeContext(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if t := time.Duration(timeoutMS) * time.Millisecond; t > 0 && (d == 0 || t < d) {
		d = t
	}
	ctx := context.WithoutCancel(parent)
	if dl, ok := parent.Deadline(); ok {
		if d > 0 {
			if byTimeout := time.Now().Add(d); byTimeout.Before(dl) {
				dl = byTimeout
			}
		}
		return context.WithDeadline(ctx, dl)
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// decode parses a JSON request body, answering 400 on malformed input.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		s.badRequest(w, r, "invalid request body: %v", err)
		return false
	}
	return true
}

func (s *Server) badRequest(w http.ResponseWriter, r *http.Request, format string, args ...any) {
	s.addCounter("errors_bad_request", 1)
	traceFrom(r.Context()).SetVerdict("bad_request")
	s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
		Schema: Schema, Kind: "error",
		Error: ErrorPayload{Kind: "bad_request", Message: fmt.Sprintf(format, args...)},
	})
}

// writeError maps a pipeline error onto the wire (see errorFor) and
// logs contained panic stacks server-side.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status, payload := errorFor(err)
	s.addCounter("errors_"+payload.Kind, 1)
	traceFrom(r.Context()).SetVerdict(payload.Kind)
	var internal *guard.ErrInternal
	if errors.As(err, &internal) && len(internal.Stack) > 0 {
		s.logf("contained panic (%s): %v\n%s", internal.Grammar, internal.Value, internal.Stack)
	}
	var pe *cache.PanicError
	if errors.As(err, &pe) && len(pe.Stack) > 0 {
		s.logf("compute panic (%s): %v\n%s", pe.Key, pe.Value, pe.Stack)
	}
	s.writeJSON(w, status, ErrorResponse{Schema: Schema, Kind: "error", Error: payload})
}

// writeJSON writes v as indented JSON with the right headers.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalBody(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeCached writes a success body that may have come from the cache,
// stamping the X-Repro-Cache header ("hit", "miss", "coalesced",
// "frozen" or "peer") so clients (and the bench's serve-load mode) can
// tell how they were served without the body differing by a byte.
func (s *Server) writeCached(w http.ResponseWriter, r *http.Request, body []byte, out cache.Outcome) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Repro-Cache", out.String())
	if out.Served() {
		s.addCounter("responses_cached", 1)
	} else {
		s.addCounter("responses_computed", 1)
	}
	traceFrom(r.Context()).SetOutcome(out.String())
	w.Write(body)
}

// marshalBody renders a response body in its canonical byte form
// (indented, trailing newline) — the form the cache stores.
func marshalBody(v any) ([]byte, error) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// handleAnalyze serves POST /v1/analyze.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if !s.admitInflight(w, r) {
		return
	}
	defer s.releaseInflight()
	s.addCounter("requests_analyze", 1)
	var req AnalyzeRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Grammar == "" {
		s.badRequest(w, r, "missing grammar text")
		return
	}
	methodName := req.Method
	if methodName == "" {
		methodName = "dp"
	}
	method, err := repro.ParseMethod(methodName)
	if err != nil {
		s.badRequest(w, r, "%v", err)
		return
	}
	filename := req.Filename
	if filename == "" {
		filename = "grammar.y"
	}
	body, out, err := s.analyzeOne(r.Context(), req.Grammar, filename, method, req.Limits, req.TimeoutMS)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeCached(w, r, body, out)
}

// getOrCompute wraps cache.GetOrCompute with a budget-aware retry: a
// singleflight joiner shares the initiating caller's compute closure,
// so it runs under that caller's admitted limits and deadline, and a
// joined flight can fail on a budget the joiner's own admission would
// not have imposed.  When that happens the joiner retries under its
// own closure — each retry either finds the stored body, joins a
// fresh flight, or becomes the owner computing under its own budget.
// Retries are bounded so pathological churn cannot loop forever;
// grammar and internal errors are never retried (they are properties
// of the input, not of the budget).
func (s *Server) getOrCompute(key string, compute func() ([]byte, error)) ([]byte, cache.Outcome, error) {
	const maxJoinRetries = 2
	for attempt := 0; ; attempt++ {
		body, out, err := s.cache.GetOrCompute(key, compute)
		if err == nil || out != cache.Coalesced || attempt == maxJoinRetries || !budgetError(err) {
			return body, out, err
		}
		s.addCounter("flight_budget_retries", 1)
	}
}

// budgetError reports whether err depends on the admitted budget (a
// limit trip or a deadline/cancellation) rather than on the input.
func budgetError(err error) bool {
	var limit *guard.ErrLimitExceeded
	return errors.As(err, &limit) || errors.Is(err, guard.ErrCanceled)
}

// analyzeOne is the shared analyze path of /v1/analyze and /v1/batch:
// cache lookup by content address, singleflight-deduplicated compute,
// canonical body.  It appends one TraceEntry to the request's trace;
// only the computing caller captures phase spans (a hit has nothing to
// trace, and a coalesced joiner did not run the closure).
func (s *Server) analyzeOne(ctx context.Context, src, filename string, method repro.Method, limits *LimitsPayload, timeoutMS int64) ([]byte, cache.Outcome, error) {
	fp := cache.Fingerprint(src, method.String())
	key := cache.Key("analyze", fp, filename)
	name := grammar.NameFromFile(filename)
	var phases []obs.SpanExport
	fromStore, fromPeer := false, false
	body, out, err := s.getOrCompute(key, func() ([]byte, error) {
		// Warm-restart path: a frozen table for this fingerprint carries
		// the canonical response body, so the whole analysis pipeline —
		// and its phase spans — is skipped.  The fingerprint is a content
		// address of (src, method); the body also names the grammar after
		// the filename, so it is served only under the same name.  A body
		// frozen under another name is recomputed, and re-frozen, below.
		if s.store != nil {
			switch ft, err := s.store.Load(fp); {
			case err == nil && len(ft.Body) > 0:
				if bodyNamed(ft.Body, name) {
					fromStore = true
					return ft.Body, nil
				}
			case errors.Is(err, frozen.ErrCorrupt):
				// A damaged file must not poison this fingerprint forever:
				// move it aside as <fp>.corrupt and recompute — the fresh
				// result re-freezes a clean table below.
				s.addCounter("frozen_quarantined", 1)
				s.logf("frozen table %s corrupt, quarantining: %v", fp, err)
				if qerr := s.store.Quarantine(fp); qerr != nil {
					s.logf("frozen quarantine %s: %v", fp, qerr)
				}
			case err != nil && !errors.Is(err, frozen.ErrNotFound):
				s.addCounter("frozen_errors", 1)
				s.logf("frozen load %s: %v", fp, err)
			}
		}
		cctx, cancel := s.computeContext(ctx, timeoutMS)
		defer cancel()
		// Fleet path: before computing, ask the fingerprint's ring owner
		// for its frozen bytes.  Every failure mode in there (dead peer,
		// open breaker, corrupt bytes, no budget) falls through to the
		// local compute below — a degraded fleet serves exactly like a
		// single node, just colder.
		if s.cluster != nil {
			switch raw, from, ferr := s.cluster.Fetch(cctx, fp); {
			case ferr == nil:
				switch ft, derr := frozen.Decode(raw); {
				case derr != nil || ft.Fingerprint != fp || len(ft.Body) == 0:
					// Config.Verify normally rejects this inside the fetch; a
					// cluster wired without it still must not serve bad bytes.
					s.addCounter("peer_degrades", 1)
					s.logf("peer fill %s from %s: undecodable bytes", fp, from)
				case bodyNamed(ft.Body, name):
					fromPeer = true
					if s.store != nil {
						if perr := s.store.PutBytes(fp, raw); perr != nil {
							s.addCounter("frozen_errors", 1)
							s.logf("peer fill store %s: %v", fp, perr)
						}
					}
					return ft.Body, nil
				}
				// Sound bytes named for another filename: the peer did
				// nothing wrong, the body just answers a different request.
			case errors.Is(ferr, cluster.ErrNotFound), errors.Is(ferr, cluster.ErrNoPeers):
				// A healthy "nobody has it": compute without ceremony.
			default:
				s.addCounter("peer_degrades", 1)
				s.logf("peer fetch %s degraded to local compute: %v", fp, ferr)
			}
		}
		g, err := repro.LoadGrammar(filename, src)
		if err != nil {
			return nil, &grammarError{err}
		}
		rec := repro.NewRecorder()
		res, err := repro.Analyze(g, repro.Options{
			Method:   method,
			Recorder: rec,
			Context:  cctx,
			Limits:   s.admit(limits),
		})
		phases = s.recordPipeline(rec)
		if err != nil {
			return nil, err
		}
		rep := export.Build(res.Automaton, res.Lookahead, res.Tables, res.DP, method.String())
		body, err := marshalBody(AnalyzeResponse{
			Schema: Schema, Kind: "analyze",
			Fingerprint: fp, Method: method.String(), Report: rep,
		})
		if err == nil && (s.store != nil || s.cluster != nil) {
			if raw := s.saveFrozen(fp, res.Tables, body); raw != nil && s.cluster != nil {
				// Push the fresh table to its ring owner so owners converge
				// to hold their key range; later misses anywhere in the
				// fleet then peer-fill instead of recomputing.
				s.cluster.Offer(fp, raw)
			}
		}
		return body, err
	})
	if err == nil && out == cache.Miss {
		// The closure ran but analyzed nothing; report where the body
		// came from, not a cold miss.  Coalesced joiners keep their own
		// outcome.
		switch {
		case fromStore:
			out = cache.Frozen
			s.addCounter("frozen_hits", 1)
		case fromPeer:
			out = cache.Peer
			s.addCounter("peer_fills", 1)
		}
	}
	traceFrom(ctx).AddEntry(telemetry.TraceEntry{
		Label: filename, Fingerprint: fp, Outcome: out.String(), Phases: phases,
	})
	return body, out, err
}

// bodyNamed reports whether a canonical analyze body (marshalBody of
// an AnalyzeResponse) names its grammar name.  The envelope fields
// ahead of the report are fixed strings and hex, report.grammar is the
// report's first field and name is its first, so the first `"grammar":
// {` is report.grammar and the check reads only the body's head.
func bodyNamed(body []byte, name string) bool {
	const key = `"grammar": {`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return false
	}
	lit, err := json.Marshal(name)
	if err != nil {
		return false
	}
	rest := bytes.TrimLeft(body[i+len(key):], " \n")
	return bytes.HasPrefix(rest, append([]byte(`"name": `), lit...))
}

// saveFrozen freezes a computed analysis — the packed row-displacement
// tables plus the canonical response body — into the store, best
// effort: serving never fails because a freeze did.  It returns the
// encoded FRZ1 bytes (also when the local save failed, and when there
// is no local store at all) so the caller can offer them to the
// fingerprint's ring owner without a second encode.
func (s *Server) saveFrozen(fp string, tables *repro.Tables, body []byte) []byte {
	p := packed.Pack(tables)
	next := make([]int32, len(p.Next))
	for i, act := range p.Next {
		next[i] = int32(act)
	}
	raw := frozen.Freeze(&frozen.TableData{
		NumStates:     tables.NumStates,
		Fingerprint:   fp,
		DefaultReduce: p.DefaultReduce,
		Base:          p.Base,
		Next:          next,
		Check:         p.Check,
		GotoBase:      p.GotoBase,
		GotoNext:      p.GotoNext,
		GotoCheck:     p.GotoCheck,
		Body:          body,
	})
	if s.store != nil {
		if err := s.store.PutBytes(fp, raw); err != nil {
			s.addCounter("frozen_errors", 1)
			s.logf("frozen save %s: %v", fp, err)
		} else {
			s.addCounter("frozen_saves", 1)
		}
	}
	return raw
}

// handleLint serves POST /v1/lint.
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	if !s.admitInflight(w, r) {
		return
	}
	defer s.releaseInflight()
	s.addCounter("requests_lint", 1)
	var req LintRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Grammar == "" {
		s.badRequest(w, r, "missing grammar text")
		return
	}
	for _, name := range append(append([]string{}, req.Enable...), req.Disable...) {
		if lint.Lookup(name) == nil {
			s.badRequest(w, r, "unknown lint pass %q", name)
			return
		}
	}
	minSev := lint.Info
	if req.MinSeverity != "" {
		var err error
		if minSev, err = lint.ParseSeverity(req.MinSeverity); err != nil {
			s.badRequest(w, r, "%v", err)
			return
		}
	}
	filename := req.Filename
	if filename == "" {
		filename = "grammar.y"
	}
	req.AmbigMaxLen = clampAmbig(req.AmbigMaxLen, maxAmbigLen)
	req.AmbigMaxPairs = clampAmbig(req.AmbigMaxPairs, maxAmbigPairs)
	fp := cache.Fingerprint(req.Grammar, "lint")
	key := cache.Key("lint", fp, filename, lintOptionsKey(req, minSev))
	var phases []obs.SpanExport
	body, out, err := s.getOrCompute(key, func() ([]byte, error) {
		g, err := repro.LoadGrammar(filename, req.Grammar)
		if err != nil {
			return nil, &grammarError{err}
		}
		cctx, cancel := s.computeContext(r.Context(), req.TimeoutMS)
		defer cancel()
		rec := repro.NewRecorder()
		rep, err := repro.Lint(g, repro.LintOptions{
			Enable:        req.Enable,
			Disable:       req.Disable,
			MinSeverity:   minSev,
			Werror:        req.Werror,
			File:          filename,
			Recorder:      rec,
			Context:       cctx,
			Limits:        s.admit(req.Limits),
			AmbigMaxLen:   req.AmbigMaxLen,
			AmbigMaxPairs: req.AmbigMaxPairs,
		})
		phases = s.recordPipeline(rec)
		if err != nil {
			return nil, err
		}
		var doc bytes.Buffer
		if err := lint.WriteJSON(&doc, []*lint.Report{rep}, []*repro.Grammar{g}); err != nil {
			return nil, err
		}
		return marshalBody(LintResponse{
			Schema: Schema, Kind: "lint",
			Fingerprint: fp, Lint: jsonRawBody(bytes.TrimSpace(doc.Bytes())),
			Ambig: ambigSummary(rep),
		})
	})
	traceFrom(r.Context()).AddEntry(telemetry.TraceEntry{
		Label: filename, Fingerprint: fp, Outcome: out.String(), Phases: phases,
	})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeCached(w, r, body, out)
}

// lintOptionsKey canonicalizes the report-shaping lint options into a
// cache-key part.  Every field that changes the response body must
// appear here.
func lintOptionsKey(req LintRequest, minSev lint.Severity) string {
	parts := []string{
		minSev.String(),
		fmt.Sprintf("werror=%t", req.Werror),
		fmt.Sprintf("ambig=%d/%d", req.AmbigMaxLen, req.AmbigMaxPairs),
	}
	parts = append(parts, req.Enable...)
	parts = append(parts, "/")
	parts = append(parts, req.Disable...)
	return cache.Key(parts...)
}

// Server-side ceilings for the client-tunable ambiguity-walk bounds:
// the walk is exponential in the worst case, so an open-ended request
// knob would be a denial-of-service lever.
const (
	maxAmbigLen   = 64
	maxAmbigPairs = 1 << 16
)

// clampAmbig normalizes a requested ambiguity bound: non-positive
// selects the engine default, anything above the ceiling is clamped.
func clampAmbig(v, ceil int) int {
	if v <= 0 {
		return 0
	}
	if v > ceil {
		return ceil
	}
	return v
}

// ambigSummary totals GL040/GL041/GL042 diagnostics into the response
// header, nil when the ambiguity pass reported nothing.
func ambigSummary(rep *lint.Report) *AmbigSummary {
	var sum AmbigSummary
	any := false
	for _, d := range rep.Diagnostics {
		switch d.Code {
		case lint.CodeAmbiguous:
			sum.Proven++
		case lint.CodeNotAmbiguous:
			sum.Unambiguous++
		case lint.CodeAmbigUndecided:
			sum.Undecided++
		default:
			continue
		}
		any = true
	}
	if !any {
		return nil
	}
	return &sum
}

// batchWorkers clamps the client's requested batch fan-out to a
// server-side ceiling.  A batch holds one admission slot however many
// grammars it carries, so its internal concurrency must be bounded by
// the server, not the request — otherwise one batch of thousands of
// grammars with workers set equally high runs thousands of concurrent
// pipelines past -max-inflight.  The ceiling is GOMAXPROCS, tightened
// to -max-inflight when that is smaller.
func (s *Server) batchWorkers(requested int) int {
	ceil := runtime.GOMAXPROCS(0)
	if s.cfg.MaxInflight > 0 && s.cfg.MaxInflight < ceil {
		ceil = s.cfg.MaxInflight
	}
	if requested <= 0 || requested > ceil {
		return ceil
	}
	return requested
}

// handleBatch serves POST /v1/batch: the request's grammars fan out
// over internal/driver's worker pool, each entry taking the same
// cached analyze path as /v1/analyze — so a batch warms the cache for
// later single requests with the same filename and vice versa (a
// named entry keys as name+".y", an unnamed one as the same default
// /v1/analyze uses).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admitInflight(w, r) {
		return
	}
	defer s.releaseInflight()
	s.addCounter("requests_batch", 1)
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Grammars) == 0 {
		s.badRequest(w, r, "empty batch")
		return
	}
	methodName := req.Method
	if methodName == "" {
		methodName = "dp"
	}
	method, err := repro.ParseMethod(methodName)
	if err != nil {
		s.badRequest(w, r, "%v", err)
		return
	}
	var policy driver.Policy
	switch req.Policy {
	case "", "collect":
		policy = driver.Collect
	case "failfast":
		policy = driver.FailFast
	default:
		s.badRequest(w, r, "unknown policy %q (want collect or failfast)", req.Policy)
		return
	}

	results := make([]BatchResult, len(req.Grammars))
	ctx, cancel := s.computeContext(r.Context(), req.TimeoutMS)
	defer cancel()
	// The driver's error return joins per-task errors in index order;
	// the batch response carries each one in its entry instead, so the
	// joined error itself is only used to mark never-dispatched tasks.
	_ = driver.Run(ctx, len(req.Grammars), driver.Options{Workers: s.batchWorkers(req.Workers), Policy: policy},
		func(ctx context.Context, i int, _ *obs.Recorder) error {
			e := req.Grammars[i]
			name := e.Name
			if name == "" {
				name = fmt.Sprintf("g%d", i)
			}
			// The filename keys the cache (it derives the report's
			// grammar name), so default it exactly as /v1/analyze does:
			// an unnamed batch entry and a default single request for
			// the same grammar share one cache entry.
			filename := "grammar.y"
			if e.Name != "" {
				filename = e.Name + ".y"
			}
			res := BatchResult{Name: name, Fingerprint: cache.Fingerprint(e.Grammar, method.String())}
			// A failfast stop may still dispatch an already-queued task
			// with the canceled context; record it as canceled instead
			// of running a computation whose batch is already dead.
			if err := ctx.Err(); err != nil {
				res.Error = &ErrorPayload{Kind: "canceled", Message: "batch canceled before this grammar ran"}
				results[i] = res
				return err
			}
			if e.Grammar == "" {
				res.Error = &ErrorPayload{Kind: "bad_request", Message: "missing grammar text"}
				results[i] = res
				return fmt.Errorf("missing grammar text")
			}
			body, out, err := s.analyzeOne(ctx, e.Grammar, filename, method, req.Limits, 0)
			if err != nil {
				_, res.Error = errorForPayload(err)
				results[i] = res
				return err
			}
			var env AnalyzeResponse
			if err := json.Unmarshal(body, &env); err != nil {
				return err
			}
			res.CacheHit = out.Served()
			res.Report = env.Report
			results[i] = res
			return nil
		})
	for i := range results {
		if results[i].Name == "" {
			// Never dispatched (failfast cut the batch short).
			name := req.Grammars[i].Name
			if name == "" {
				name = fmt.Sprintf("g%d", i)
			}
			results[i] = BatchResult{
				Name:        name,
				Fingerprint: cache.Fingerprint(req.Grammars[i].Grammar, method.String()),
				Error:       &ErrorPayload{Kind: "canceled", Message: "batch canceled before this grammar ran"},
			}
		}
	}
	s.writeJSON(w, http.StatusOK, BatchResponse{
		Schema: Schema, Kind: "batch", Method: method.String(), Results: results,
	})
}

// errorForPayload is errorFor without claiming the HTTP status (batch
// entries embed the payload at 200).
func errorForPayload(err error) (int, *ErrorPayload) {
	status, p := errorFor(err)
	return status, &p
}

// HealthzResponse is the GET /healthz body: liveness plus enough
// identity (uptime, build metadata) to tell which binary answered.
type HealthzResponse struct {
	Schema   string    `json:"schema"`
	Kind     string    `json:"kind"` // "healthz"
	Status   string    `json:"status"`
	UptimeMS int64     `json:"uptime_ms"`
	Build    BuildInfo `json:"build"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, HealthzResponse{
		Schema: Schema, Kind: "healthz", Status: "ok",
		UptimeMS: time.Since(s.start).Milliseconds(),
		Build:    s.build,
	})
}

// CacheMetrics is the cache section of /metricz.
type CacheMetrics struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Shared    int64   `json:"shared"`
	Evictions int64   `json:"evictions"`
	Rejected  int64   `json:"rejected"`
	Entries   int64   `json:"entries"`
	Bytes     int64   `json:"bytes"`
	Capacity  int64   `json:"capacity"`
	HitRatio  float64 `json:"hit_ratio"`
}

// AdmissionMetrics is the admission-control section of /metricz.
type AdmissionMetrics struct {
	MaxInflight int   `json:"max_inflight"`
	Inflight    int   `json:"inflight"`
	Rejected    int64 `json:"rejected"`
}

// MetriczResponse is the GET /metricz body: the server-lifetime merge
// of every request's pipeline counters (the obs cost model), the
// server's own request/cache/admission counters, and the latency
// digests of every registered histogram (keyed "scope/name":
// "endpoint/analyze", "phase/solve-reads", "outcome/hit").  The same
// data renders as Prometheus text with ?format=prom.
type MetriczResponse struct {
	Schema           string                       `json:"schema"`
	Kind             string                       `json:"kind"` // "metricz"
	UptimeMS         int64                        `json:"uptime_ms"`
	InflightRequests int64                        `json:"inflight_requests"`
	Counters         map[string]int64             `json:"counters"`
	Cache            CacheMetrics                 `json:"cache"`
	Admission        AdmissionMetrics             `json:"admission"`
	Cluster          *cluster.Stats               `json:"cluster,omitempty"`
	Latency          map[string]telemetry.Summary `json:"latency"`
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		s.writeProm(w, r)
		return
	}
	st := s.cache.Stats()
	resp := MetriczResponse{
		Schema: Schema, Kind: "metricz",
		UptimeMS:         time.Since(s.start).Milliseconds(),
		InflightRequests: s.inflightNow.Load(),
		Counters:         map[string]int64{},
		Cache: CacheMetrics{
			Hits: st.Hits, Misses: st.Misses, Shared: st.Shared,
			Evictions: st.Evictions, Rejected: st.Rejected,
			Entries: st.Entries, Bytes: st.Bytes, Capacity: st.Capacity,
			HitRatio: st.HitRatio(),
		},
		Latency: s.latencySummaries(),
	}
	s.mu.Lock()
	for n, v := range s.counters {
		resp.Counters[n] = v
	}
	s.mu.Unlock()
	// The cache counters appear in the flat map too, so clients that
	// only scrape counters see hit rates without the nested section.
	resp.Counters["cache_hits"] = st.Hits
	resp.Counters["cache_misses"] = st.Misses
	resp.Counters["cache_shared"] = st.Shared
	resp.Counters["cache_evictions"] = st.Evictions
	resp.Admission = AdmissionMetrics{
		MaxInflight: s.cfg.MaxInflight,
		Rejected:    resp.Counters["admission_rejects"],
	}
	if s.inflight != nil {
		resp.Admission.Inflight = len(s.inflight)
	}
	if s.cluster != nil {
		cst := s.cluster.Stats()
		resp.Cluster = &cst
	}
	s.writeJSON(w, http.StatusOK, resp)
}
