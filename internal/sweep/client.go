// Client-side bindings for the sweep API. cmd/experiments uses them
// to run the paper's evaluation as a service client; the end-to-end
// smoke tests use them to drive a real daemon; internal/cluster routes
// one shared Client across a whole fleet via DoRaw.
//
// Resilience: every exchange retries transient failures (network
// errors, 429/502/503/504, ERR_OVERLOADED) with capped exponential
// backoff and full jitter, honouring the server's Retry-After hint
// when present. Retrying POST /v1/compile and POST /v1/sweeps is safe
// because both are idempotent by construction — the request body is
// content-addressed, so a retry lands on the cache entry (or dedups
// onto the in-flight job) the lost response already paid for. The
// client remembers nothing across exchanges: which fleet member is
// down is the cluster member table's record, not the client's.
package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cerr"
	"repro/internal/obs"
)

// WireError is the service error envelope member.
type WireError struct {
	Code    string `json:"code"`
	Stage   string `json:"stage,omitempty"`
	Message string `json:"message"`
}

// Error renders the wire error in the CLI convention (code first).
func (e *WireError) Error() string {
	if e.Stage != "" {
		return fmt.Sprintf("%s[%s]: %s", e.Code, e.Stage, e.Message)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// envelope mirrors the service's uniform /v1 response envelope.
type envelope struct {
	Job   json.RawMessage `json:"job"`
	Sweep *Status         `json:"sweep"`
	Data  json.RawMessage `json:"data"`
	Page  *Page           `json:"page"`
	Error *WireError      `json:"error"`
}

// RetryPolicy shapes the client's transient-failure handling. The
// zero value disables retries (single-shot exchanges); DefaultRetry
// is what NewClient installs.
type RetryPolicy struct {
	// MaxAttempts bounds tries per exchange (first attempt included);
	// <= 1 means no retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt n (0-based
	// retry ordinal) waits a uniformly-random duration in
	// [0, min(MaxDelay, BaseDelay·2ⁿ)] — "full jitter", which spreads
	// a synchronized burst of retrying clients instead of re-bunching
	// them.
	BaseDelay time.Duration
	// MaxDelay caps one backoff sleep. A server Retry-After hint
	// overrides the computed delay (still capped at MaxDelay).
	MaxDelay time.Duration
}

// DefaultRetry is the policy NewClient installs: 6 attempts, 100 ms
// base, 5 s cap. Six attempts put the expected cumulative backoff
// around 1.5 s — enough to ride out a daemon restart, not enough to
// mask a real outage.
var DefaultRetry = RetryPolicy{
	MaxAttempts: 6,
	BaseDelay:   100 * time.Millisecond,
	MaxDelay:    5 * time.Second,
}

// Client talks to a bisramgend instance (the enveloped /v1 methods
// address Base) or, via DoRaw, to any endpoint of a fleet. It keeps
// no state between exchanges, so one Client is safe to share across
// goroutines.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:8047".
	Base string
	// Retry shapes transient-failure handling; the zero value is
	// single-shot. NewClient installs DefaultRetry.
	Retry RetryPolicy
	// PageSize is how many rows SweepResults fetches per
	// ?offset=&limit= window — bounding any single response body while
	// the caller still sees a complete Results; <= 0 means
	// DefaultPageSize.
	PageSize int
}

// DefaultPageSize is the results window NewClient installs: large
// enough that small sweeps finish in one round trip, small enough to
// bound the response body of a many-thousand-point sweep.
const DefaultPageSize = 500

// NewClient builds a client for the given base URL with DefaultRetry.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), Retry: DefaultRetry, PageSize: DefaultPageSize}
}

// httpClient carries every enveloped and raw exchange; its timeout
// bounds one attempt.
var httpClient = &http.Client{Timeout: 30 * time.Second}

// transientStatus reports whether an HTTP status indicates a condition
// a retry can clear.
func transientStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff computes the sleep before retry ordinal n: the server's
// Retry-After hint when given, otherwise full-jitter exponential
// backoff — both capped at MaxDelay.
func (c *Client) backoff(n int, retryAfter time.Duration) time.Duration {
	max := c.Retry.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	if retryAfter > 0 {
		return min(retryAfter, max)
	}
	d := c.Retry.BaseDelay << uint(n)
	if d <= 0 || d > max {
		d = max
	}
	return rand.N(d + 1)
}

// do runs one exchange with retries and decodes the envelope,
// converting wire errors into typed errors. Exchanges are idempotent
// (content-addressed bodies), so POSTs retry as safely as GETs.
func (c *Client) do(method, path string, body []byte) (*envelope, error) {
	attempts := max(c.Retry.MaxAttempts, 1)
	for attempt := 0; ; attempt++ {
		env, retryAfter, transient, err := c.doOnce(method, path, body)
		if err == nil || !transient || attempt == attempts-1 {
			return env, err
		}
		time.Sleep(c.backoff(attempt, retryAfter))
	}
}

// doOnce runs a single exchange and decodes its envelope. transient
// reports whether the failure class is retryable; retryAfter carries
// the server's Retry-After hint (0 when absent).
func (c *Client) doOnce(method, path string, body []byte) (env *envelope, retryAfter time.Duration, transient bool, err error) {
	resp, err := c.doRawOnce(context.Background(), method, c.Base+path, body)
	if err != nil {
		return nil, 0, retryable(err), err
	}
	if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	transient = transientStatus(resp.Status)
	var decoded envelope
	if err := json.Unmarshal(resp.Body, &decoded); err != nil {
		return nil, retryAfter, transient, cerr.Wrap(cerr.CodeInternal, err,
			"sweep client: %s %s returned non-envelope JSON (status %d)", method, path, resp.Status)
	}
	if decoded.Error != nil {
		if decoded.Error.Code == cerr.CodeOverloaded.String() {
			transient = true
		}
		return nil, retryAfter, transient, decoded.Error
	}
	if resp.Status >= 400 {
		return nil, retryAfter, transient, cerr.New(cerr.CodeInternal,
			"sweep client: %s %s: status %d with null error", method, path, resp.Status)
	}
	return &decoded, retryAfter, false, nil
}

// retryable reports whether a doRawOnce error is worth another
// attempt: every transport failure is, a malformed request never is.
func retryable(err error) bool { return cerr.CodeOf(err) != cerr.CodeInvalidParams }

// RawResponse is one verbatim HTTP exchange result from DoRaw: the
// status, headers and body exactly as the endpoint sent them.
type RawResponse struct {
	Status int
	Header http.Header
	Body   []byte
}

// DoRaw performs one exchange against an ABSOLUTE url (any host — the
// cluster peer client routes one shared Client across a whole fleet)
// and returns the response verbatim, whatever its status. Only
// transport-level failures (refused, reset, timeout) are retried; an
// HTTP response of any status is a terminal answer here, because
// callers proxying for someone else must pass 4xx/5xx envelopes
// through untouched.
func (c *Client) DoRaw(ctx context.Context, method, absURL string, body []byte) (*RawResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := max(c.Retry.MaxAttempts, 1)
	for attempt := 0; ; attempt++ {
		resp, err := c.doRawOnce(ctx, method, absURL, body)
		if err == nil || !retryable(err) || ctx.Err() != nil || attempt == attempts-1 {
			return resp, err
		}
		time.Sleep(c.backoff(attempt, 0))
	}
}

// doRawOnce runs a single exchange: it builds the request, propagates
// the caller's trace, sends it and reads the (64 MiB-capped) body.
// Connection refused, reset, timeout and read failures come back as
// ERR_INTERNAL; a request that cannot be built as ERR_INVALID_PARAMS.
func (c *Client) doRawOnce(ctx context.Context, method, absURL string, body []byte) (*RawResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, absURL, rd)
	if err != nil {
		return nil, cerr.Wrap(cerr.CodeInvalidParams, err, "sweep client: bad request")
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's trace across the process boundary: the
	// receiving daemon continues the same trace ID with this exchange's
	// open span as remote parent (see obs wire format).
	if hv, ok := obs.Inject(ctx); ok {
		req.Header.Set(obs.TraceHeader, hv)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "sweep client: %s %s", method, absURL)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "sweep client: reading %s", absURL)
	}
	return &RawResponse{Status: resp.StatusCode, Header: resp.Header, Body: raw}, nil
}

// Compile posts a raw compile request body and returns the envelope's
// job payload. The request is content-addressed server-side, so the
// retry loop's replays are idempotent: a replay of a compile the
// server already finished is a cache hit.
func (c *Client) Compile(body []byte) (json.RawMessage, error) {
	env, err := c.do(http.MethodPost, "/v1/compile", body)
	if err != nil {
		return nil, err
	}
	if env.Job == nil {
		return nil, cerr.New(cerr.CodeInternal, "sweep client: compile response missing job")
	}
	return env.Job, nil
}

// CreateSweep posts the spec and returns the initial status.
func (c *Client) CreateSweep(s Spec) (*Status, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return nil, cerr.Wrap(cerr.CodeInvalidParams, err, "sweep client: encoding spec")
	}
	env, err := c.do(http.MethodPost, "/v1/sweeps", body)
	if err != nil {
		return nil, err
	}
	if env.Sweep == nil {
		return nil, cerr.New(cerr.CodeInternal, "sweep client: create response missing sweep")
	}
	return env.Sweep, nil
}

// SweepStatus fetches the aggregate + per-point status.
func (c *Client) SweepStatus(id string) (*Status, error) {
	env, err := c.do(http.MethodGet, "/v1/sweeps/"+id, nil)
	if err != nil {
		return nil, err
	}
	if env.Sweep == nil {
		return nil, cerr.New(cerr.CodeInternal, "sweep client: status response missing sweep")
	}
	return env.Sweep, nil
}

// SweepResults fetches the evaluation rows, paging through
// ?offset=&limit= windows of PageSize rows and reassembling the full
// document transparently.
func (c *Client) SweepResults(id string) (*Results, error) {
	limit := c.PageSize
	if limit <= 0 {
		limit = DefaultPageSize
	}
	var out *Results
	for offset := 0; ; {
		path := fmt.Sprintf("/v1/sweeps/%s/results?offset=%d&limit=%d", id, offset, limit)
		env, err := c.do(http.MethodGet, path, nil)
		if err != nil {
			return nil, err
		}
		var res Results
		if err := json.Unmarshal(env.Data, &res); err != nil {
			return nil, cerr.Wrap(cerr.CodeInternal, err, "sweep client: results decode")
		}
		if out == nil {
			out = &res
		} else {
			// Later pages carry fresher document-level counters; keep
			// them alongside the accumulated rows.
			rows := append(out.Rows, res.Rows...)
			*out = res
			out.Rows = rows
		}
		if env.Page == nil || env.Page.NextOffset == nil {
			return out, nil
		}
		offset = *env.Page.NextOffset
	}
}

// WaitSweep polls until the sweep leaves the running state or ctx
// expires.
func (c *Client) WaitSweep(ctx context.Context, id string, poll time.Duration) (*Status, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := c.SweepStatus(id)
		if err != nil {
			return nil, err
		}
		if st.State != "running" {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, cerr.Wrap(cerr.CodeBudgetExceeded, ctx.Err(), "sweep client: waiting for %s", id)
		case <-time.After(poll):
		}
	}
}
