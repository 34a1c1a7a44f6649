package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"hputune/internal/traffic"
)

// MaxBodyBytes is the edge's one body cap: it bounds request bodies
// (specs and trace uploads), and the cluster router bounds node replies
// by it too.
const MaxBodyBytes = 32 << 20

// RequestIDHeader carries the request identity: accepted from the
// client when usable, minted by the edge otherwise, echoed on every
// response, forwarded across the router hop and logged.
const RequestIDHeader = "X-Request-ID"

// Edge is the one HTTP edge every /v1 surface mounts — htuned's Server
// and htrouter's cluster Router alike — so a client cannot tell their
// replies apart: a route mux whose patterns label per-route latency
// histograms, behind the request-body cap, request-ID mint/echo and the
// interceptor that turns plain-text error replies into envelopes.
type Edge struct {
	mux  *http.ServeMux
	hist *traffic.HistogramSet
}

// NewEdge registers routes (pattern → handler) on a fresh mux with one
// latency histogram per pattern.
func NewEdge(routes map[string]http.HandlerFunc) *Edge {
	e := &Edge{mux: http.NewServeMux()}
	patterns := make([]string, 0, len(routes))
	for pattern, h := range routes {
		e.mux.HandleFunc(pattern, h)
		patterns = append(patterns, pattern)
	}
	e.hist = traffic.NewHistogramSet(patterns...)
	return e
}

// ServeHTTP dispatches on the route mux alone; Handler mounts the edge
// around it.
func (e *Edge) ServeHTTP(w http.ResponseWriter, r *http.Request) { e.mux.ServeHTTP(w, r) }

// Histograms snapshots the per-route latency histograms, keyed by route
// pattern plus "other" for unmatched requests; times in milliseconds.
func (e *Edge) Histograms() map[string]traffic.HistogramSnapshot { return e.hist.Snapshot() }

// Handler mounts the edge around next: the Edge itself, or its routes
// behind the caller's own admission checks. Outermost first: the body
// cap, the request id (echoed on the reply and carried in the request
// context, see RequestID), the envelope interceptor and next; then the
// route's latency histogram and, when logf is non-nil, one call with the
// final status and byte count.
func (e *Edge) Handler(next http.Handler, logf func(r *http.Request, status int, bytes int64, elapsed time.Duration)) http.Handler {
	return http.MaxBytesHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := mintRequestID(r)
		w.Header().Set(RequestIDHeader, rid)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, rid))
		ew := &envelopeWriter{rw: w, status: http.StatusOK}
		// The matched route pattern labels the histogram; unmatched
		// requests (404s, 405s) pool under "other".
		_, pattern := e.mux.Handler(r)
		next.ServeHTTP(ew, r)
		ew.finish()
		elapsed := time.Since(start)
		e.hist.Observe(pattern, elapsed)
		if logf != nil {
			logf(r, ew.status, ew.bytes, elapsed)
		}
	}), MaxBodyBytes)
}

type requestIDKey struct{}

// RequestID returns the id the edge assigned to r, or "" for a request
// that did not pass through an edge.
func RequestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// ridPrefix/ridSeq build minted request ids: one random process prefix
// plus a counter, so ids are unique across restarts without
// per-request entropy.
var (
	ridPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return fmt.Sprintf("%08x", os.Getpid())
		}
		return hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Uint64
)

// mintRequestID returns the validated client-supplied X-Request-ID or
// mints one. Client values are accepted only when short and
// printable-ASCII (they are echoed into headers and logs).
func mintRequestID(r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id != "" && len(id) <= 128 && printableASCII(id) {
		return id
	}
	return fmt.Sprintf("%s-%d", ridPrefix, ridSeq.Add(1))
}

func printableASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x21 || s[i] > 0x7e {
			return false
		}
	}
	return true
}

// maxInterceptBody caps how much of an intercepted plain-text error
// body is preserved as the envelope message.
const maxInterceptBody = 256

// envelopeWriter wraps every response so (1) the final status and byte
// count are observable for histograms and the access log, and (2) any
// non-2xx reply written without a JSON body — the ServeMux's own
// plain-text 404/405 replies — is rewritten into the uniform envelope.
// Handlers that write the envelope themselves set Content-Type
// application/json first and pass through untouched. status starts at
// 200, the status of a handler that never calls WriteHeader.
type envelopeWriter struct {
	rw          http.ResponseWriter
	status      int
	bytes       int64
	wrote       bool
	intercept   bool
	intercepted []byte
}

func (w *envelopeWriter) Header() http.Header { return w.rw.Header() }

func (w *envelopeWriter) WriteHeader(status int) {
	if w.wrote {
		return
	}
	w.wrote = true
	w.status = status
	if status >= 400 && !strings.HasPrefix(w.rw.Header().Get("Content-Type"), "application/json") {
		// A plain-text error from outside our handlers: swap the body for
		// the envelope. Headers must change before they go out.
		w.intercept = true
		h := w.rw.Header()
		h.Set("Content-Type", "application/json")
		h.Del("Content-Length")
	}
	w.rw.WriteHeader(status)
}

func (w *envelopeWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	if w.intercept {
		// Swallow the original body (keeping a prefix as the message);
		// finish() writes the envelope after the handler returns.
		room := max(maxInterceptBody-len(w.intercepted), 0)
		w.intercepted = append(w.intercepted, p[:min(len(p), room)]...)
		return len(p), nil
	}
	n, err := w.rw.Write(p)
	w.bytes += int64(n)
	return n, err
}

// finish completes an intercepted reply: the original plain-text body
// becomes the envelope message under the status's default code.
func (w *envelopeWriter) finish() {
	if !w.intercept {
		return
	}
	w.intercept = false
	msg := strings.TrimSpace(string(w.intercepted))
	if msg == "" {
		msg = http.StatusText(w.status)
	}
	encodeJSON(w, ErrorEnvelope{Error: APIError{Code: CodeForStatus(w.status), Message: msg}})
}
