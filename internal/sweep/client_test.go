package sweep

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastRetry keeps test wall-clock down while exercising the full
// retry path.
var fastRetry = RetryPolicy{
	MaxAttempts: 4,
	BaseDelay:   time.Millisecond,
	MaxDelay:    5 * time.Millisecond,
}

func TestClientRetriesOverloadThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"ERR_OVERLOADED","message":"queue full"}}`)
			return
		}
		fmt.Fprint(w, `{"job":{"key":"abc","state":"done"}}`)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetry
	// Cap Retry-After honoring at MaxDelay so the advertised 1 s hint
	// doesn't stall the test.
	job, err := c.Compile([]byte(`{}`))
	if err != nil {
		t.Fatalf("Compile after overload: %v", err)
	}
	if !strings.Contains(string(job), `"abc"`) {
		t.Fatalf("job payload %s", job)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3", n)
	}
}

func TestClientDoesNotRetryDeterministicFailures(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":{"code":"ERR_INVALID_PARAMS","message":"rows out of range"}}`)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetry
	_, err := c.Compile([]byte(`{}`))
	var we *WireError
	if !errors.As(err, &we) || we.Code != "ERR_INVALID_PARAMS" {
		t.Fatalf("error %v, want ERR_INVALID_PARAMS wire error", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("deterministic failure retried: %d calls", n)
	}
}

func TestClientRetriesTransportFailures(t *testing.T) {
	// A server that is down for the first attempts: point the client at
	// a closed port, then swap in a live server via a reverse proxy
	// trick — simplest deterministic stand-in is a handler that hijacks
	// and drops the first connections.
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close() // slam the connection: transport-level failure
			return
		}
		fmt.Fprint(w, `{"job":{"key":"k"}}`)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetry
	if _, err := c.Compile([]byte(`{}`)); err != nil {
		t.Fatalf("Compile after dropped connection: %v", err)
	}
	if n := calls.Load(); n < 2 {
		t.Fatalf("server saw %d calls, want >= 2", n)
	}
}

func TestClientZeroPolicyIsSingleShot(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":{"code":"ERR_OVERLOADED","message":"busy"}}`)
	}))
	defer srv.Close()

	c := &Client{Base: srv.URL} // zero policy: no retries
	if _, err := c.Compile([]byte(`{}`)); err == nil {
		t.Fatal("expected overload error")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("zero policy sent %d requests, want 1", n)
	}
}

// TestClientDoRawPassesResponsesThrough: DoRaw returns HTTP error
// statuses verbatim (no retry — a proxy must relay them), and retries
// only transport-level failures.
func TestClientDoRawPassesResponsesThrough(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n == 1 {
			hj := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close() // transport failure: retried
			return
		}
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":{"code":"ERR_OVERLOADED","message":"busy"}}`)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetry
	resp, err := c.DoRaw(nil, http.MethodPost, srv.URL+"/v1/compile", []byte(`{}`))
	if err != nil {
		t.Fatalf("DoRaw: %v", err)
	}
	if resp.Status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 passed through", resp.Status)
	}
	if resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("Retry-After header lost: %v", resp.Header)
	}
	if !strings.Contains(string(resp.Body), "ERR_OVERLOADED") {
		t.Fatalf("body %s", resp.Body)
	}
	// Exactly one transport retry, no retry of the 429.
	if n := calls.Load(); n != 2 {
		t.Fatalf("server saw %d calls, want 2", n)
	}
}

func TestClientBackoffHonorsRetryAfterAndCaps(t *testing.T) {
	c := NewClient("http://example.invalid")
	c.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	if d := c.backoff(0, 20*time.Millisecond); d != 20*time.Millisecond {
		t.Fatalf("Retry-After not honored: %v", d)
	}
	if d := c.backoff(0, time.Hour); d != 40*time.Millisecond {
		t.Fatalf("Retry-After not capped: %v", d)
	}
	for n := 0; n < 10; n++ {
		if d := c.backoff(n, 0); d < 0 || d > 40*time.Millisecond {
			t.Fatalf("backoff(%d) = %v outside [0, cap]", n, d)
		}
	}
}
