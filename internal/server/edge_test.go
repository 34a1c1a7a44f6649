package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCodeForStatus(t *testing.T) {
	cases := map[int]string{
		http.StatusBadRequest:            CodeBadSpec,
		http.StatusNotFound:              CodeNotFound,
		http.StatusMethodNotAllowed:      CodeMethodNotAllowed,
		http.StatusRequestEntityTooLarge: CodeTooLarge,
		http.StatusTooManyRequests:       CodeRateLimited,
		http.StatusGone:                  CodeCompacted,
		http.StatusServiceUnavailable:    CodeOverloaded,
		http.StatusTeapot:                CodeBadSpec, // any other 4xx
		http.StatusInternalServerError:   CodeInternal,
		http.StatusBadGateway:            CodeInternal,
	}
	for status, want := range cases {
		if got := CodeForStatus(status); got != want {
			t.Errorf("CodeForStatus(%d) = %q, want %q", status, got, want)
		}
	}
}

// TestEdgeEnvelopesAndCarriesRequestID drives an Edge on its own: the
// request id reaches the handler through the context and the reply
// header, a plain-text error becomes an envelope (its body truncated to
// the message cap), and every request lands in a route histogram.
func TestEdgeEnvelopesAndCarriesRequestID(t *testing.T) {
	seen := make(chan string, 1)
	e := NewEdge(map[string]http.HandlerFunc{
		"GET /ok": func(w http.ResponseWriter, r *http.Request) {
			seen <- RequestID(r)
			_, _ = io.WriteString(w, "fine")
		},
		"GET /teapot": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, strings.Repeat("<", 2*maxInterceptBody), http.StatusTeapot)
		},
	})
	logged := make(chan int, 2)
	ts := httptest.NewServer(e.Handler(e, func(r *http.Request, status int, bytes int64, _ time.Duration) {
		logged <- status
	}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid, got := resp.Header.Get(RequestIDHeader), <-seen; rid == "" || rid != got {
		t.Fatalf("reply id %q, handler saw %q", rid, got)
	}
	if RequestID(httptest.NewRequest("GET", "/", nil)) != "" {
		t.Fatal("a request outside the edge has an id")
	}

	resp, err = http.Get(ts.URL + "/teapot")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := `{"error":{"code":"bad_spec","message":"` + strings.Repeat("<", maxInterceptBody) + `"}}` + "\n"
	if resp.StatusCode != http.StatusTeapot || string(raw) != want {
		t.Fatalf("intercepted reply %d %s", resp.StatusCode, raw)
	}

	hist := e.Histograms()
	if hist["GET /ok"].Count != 1 || hist["GET /teapot"].Count != 1 {
		t.Fatalf("histograms %+v", hist)
	}
	if first, second := <-logged, <-logged; first != http.StatusOK || second != http.StatusTeapot {
		t.Fatalf("logged statuses %d, %d, want 200, 418", first, second)
	}
}
