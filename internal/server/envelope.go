package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Stable machine-readable error codes. Every non-2xx reply from the /v1
// surface carries exactly one of these in its envelope; clients branch
// on the code, never on message text. Documented in doc.go and README.
const (
	// CodeOverloaded: admission or campaign capacity exhausted (503).
	// Back off for the reply's retry_after_ms and retry.
	CodeOverloaded = "overloaded"
	// CodeRateLimited: the client exceeded its per-client rate (429);
	// retry_after_ms is computed from the client's token bucket.
	CodeRateLimited = "rate_limited"
	// CodeBadSpec: the request body failed parsing, validation or a
	// resource ceiling (400); retrying unchanged cannot succeed.
	CodeBadSpec = "bad_spec"
	// CodeTooLarge: the request body exceeded the byte cap (413).
	CodeTooLarge = "too_large"
	// CodeNotFound: unknown route or campaign id (404).
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the route exists, the method does not (405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeSuspended: the server is draining and no longer accepts this
	// work (503 on campaign starts during shutdown); retrying against a
	// live replica may succeed, retrying here will not.
	CodeSuspended = "suspended"
	// CodeCompacted: the requested WAL tail was compacted into a
	// snapshot (410 on /v1/replication/wal); refetch the full state from
	// /v1/replication/state and resume shipping from its sequence.
	CodeCompacted = "compacted"
	// CodeInternal: an unexpected server-side failure (5xx fallback).
	CodeInternal = "internal"
)

// APIError is the uniform error envelope body: a stable Code to branch
// on, a human-readable Message, and — on overload and rate-limit
// replies — how long to wait before retrying.
type APIError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope is the uniform non-2xx reply document:
// {"error":{"code","message","retry_after_ms"}}.
type ErrorEnvelope struct {
	Error APIError `json:"error"`
}

// CodeForStatus maps an HTTP status to its default error code — unique
// except for 503, where capacity replies (overloaded) are written
// explicitly and only drain-time replies fall through to this map.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadSpec
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusTooManyRequests:
		return CodeRateLimited
	case http.StatusGone:
		return CodeCompacted
	case http.StatusServiceUnavailable:
		return CodeOverloaded
	}
	if status >= 400 && status < 500 {
		return CodeBadSpec
	}
	return CodeInternal
}

// WriteJSON writes v as the reply body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	encodeJSON(w, v)
}

// encodeJSON writes v as one JSON line with HTML escaping off, so a
// reply carries client strings (campaign names, ids) back byte for
// byte, whether a node or the router writes it.
func encodeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // headers are out; nothing useful to do on failure
}

// WriteEnvelope writes the uniform error envelope. retry, when
// positive, is rounded up to whole milliseconds in the body and whole
// seconds in the Retry-After header (the header's granularity).
func WriteEnvelope(w http.ResponseWriter, status int, code string, retry time.Duration, format string, args ...any) {
	e := APIError{Code: code, Message: fmt.Sprintf(format, args...)}
	if retry > 0 {
		e.RetryAfterMS = int64((retry + time.Millisecond - 1) / time.Millisecond)
		secs := (retry + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	WriteJSON(w, status, ErrorEnvelope{Error: e})
}

// WriteError writes the envelope with the status's default code and no
// retry hint; the status keeps its historical meaning (400 bad_spec,
// 404 not_found, 413 too_large).
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteEnvelope(w, status, CodeForStatus(status), 0, format, args...)
}

// WriteOverloaded writes the 503 capacity reply with a retry hint.
func WriteOverloaded(w http.ResponseWriter, retry time.Duration, format string, args ...any) {
	WriteEnvelope(w, http.StatusServiceUnavailable, CodeOverloaded, retry, format, args...)
}

// writeSuspended writes the 503 drain-time reply (no retry hint: this
// process is going away).
func writeSuspended(w http.ResponseWriter, format string, args ...any) {
	WriteEnvelope(w, http.StatusServiceUnavailable, CodeSuspended, 0, format, args...)
}
