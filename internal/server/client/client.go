// Package client is the typed Go client for the GoldenEye campaign
// service (internal/server). It submits jobs, follows their SSE progress
// streams, and decodes completed CampaignReports — which arrive
// bit-identical to a local run with the same seed and worker count, since
// the wire encodings round-trip the Welford accumulators exactly.
//
// The client is fault-tolerant by default: submissions carry a generated
// Idempotency-Key and are retried with jittered exponential backoff
// across transport failures, queue rejections (429, honoring the
// daemon's Retry-After hint), and transient 5xx responses — the key
// guarantees a retried submit never double-runs a campaign. Progress
// streams reconnect after drops and resume via Last-Event-ID, so a
// daemon restart mid-campaign is invisible to Run callers as long as the
// daemon keeps a write-ahead journal.
package client

import (
	"bufio"
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"goldeneye"
	"goldeneye/internal/server"
	"goldeneye/internal/telemetry"
)

// Client-side metric names, registered in the Options.Registry (see
// internal/telemetry/README.md for the inventory).
const (
	// MetricRetries counts retried requests, labeled op="submit|get|cancel"
	// for JSON endpoints and op="stream" for SSE reconnects.
	MetricRetries = "goldeneye_client_retries_total"

	// MetricSSEResumes counts stream reconnects that carried a
	// Last-Event-ID (i.e. resumed mid-stream rather than starting fresh).
	MetricSSEResumes = "goldeneye_client_sse_resumes_total"
)

// Options configures a Client's timeouts and retry policy. The zero value
// gets sensible defaults from New.
type Options struct {
	// RequestTimeout bounds each attempt of the JSON endpoints (submit,
	// status, report, cancel, health). It does not apply to the SSE
	// stream, which stays open for the life of a job and is guarded by
	// StreamIdleTimeout instead. Default 15s.
	RequestTimeout time.Duration

	// StreamIdleTimeout is the SSE watchdog: if no bytes (events or the
	// daemon's comment heartbeats) arrive for this long, the stream is
	// closed and reconnected. It must exceed the daemon's StreamKeepAlive
	// or healthy idle streams get cycled. Default 45s; negative disables.
	StreamIdleTimeout time.Duration

	// MaxAttempts bounds the total tries per logical call (first attempt
	// plus retries), and the consecutive failed reconnects a stream
	// tolerates before giving up. Default 5.
	MaxAttempts int

	// BaseBackoff and MaxBackoff shape the jittered exponential backoff
	// between retries (defaults 200ms and 5s). A 429's Retry-After hint
	// overrides the computed backoff for that wait.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// Registry receives the client metrics (nil = a fresh registry).
	Registry *telemetry.Registry

	// Transport overrides the HTTP transport (nil = http.DefaultTransport).
	// Test seam: internal/chaos injects transport faults through it.
	Transport http.RoundTripper
}

func (o *Options) withDefaults() {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 15 * time.Second
	}
	if o.StreamIdleTimeout == 0 {
		o.StreamIdleTimeout = 45 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 200 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.Registry == nil {
		o.Registry = telemetry.NewRegistry()
	}
}

// QueueFullError reports a submission still rejected with 429 after the
// client exhausted its retries; RetryAfter carries the server's backoff
// hint.
type QueueFullError struct {
	RetryAfter time.Duration
	Message    string
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("%s (retry after %s)", e.Message, e.RetryAfter)
}

// APIError is a non-2xx response other than queue rejection.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("campaign service: %s (HTTP %d)", e.Message, e.StatusCode)
}

// NotReadyError reports a daemon answering 503 on /readyz (draining, or
// its write-ahead journal went unwritable).
type NotReadyError struct {
	Reason string
}

func (e *NotReadyError) Error() string {
	return fmt.Sprintf("campaign service not ready: %s", e.Reason)
}

// ErrCancelled reports a streamed job that terminated by cancellation.
var ErrCancelled = errors.New("client: job cancelled")

// Client talks to one campaign daemon.
type Client struct {
	base string
	opts Options
	hc   *http.Client // JSON endpoints: per-attempt RequestTimeout
	sc   *http.Client // SSE stream: no timeout, guarded by the idle watchdog
	reg  *telemetry.Registry
}

// New returns a client for the daemon at base (e.g.
// "http://localhost:7726") with default timeouts and retry policy.
func New(base string) *Client {
	return NewWithOptions(base, Options{})
}

// NewWithOptions returns a client with an explicit timeout/retry policy.
func NewWithOptions(base string, opts Options) *Client {
	opts.withDefaults()
	return &Client{
		base: strings.TrimRight(base, "/"),
		opts: opts,
		hc:   &http.Client{Timeout: opts.RequestTimeout, Transport: opts.Transport},
		sc:   &http.Client{Transport: opts.Transport},
		reg:  opts.Registry,
	}
}

// Registry exposes the client's telemetry registry (retry and stream-
// resume counters).
func (c *Client) Registry() *telemetry.Registry { return c.reg }

// NewIdempotencyKey generates a fresh submission key: 128 random bits,
// hex-encoded. Submit calls it automatically; use it directly only when
// the same logical submission must survive across client processes.
func NewIdempotencyKey() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal everywhere else too;
		// fall back to a time-free math/rand key rather than panicking.
		for i := range b {
			b[i] = byte(rand.Intn(256))
		}
	}
	return "ge-" + hex.EncodeToString(b[:])
}

// Submit posts a job and returns its accepted status, retrying transport
// failures, queue rejections, and transient 5xx responses under a
// generated Idempotency-Key — the daemon deduplicates, so a retry whose
// predecessor actually landed returns the original job instead of
// double-running the campaign. A queue still full after all retries
// comes back as *QueueFullError; invalid specs as *APIError with the
// daemon's 400 reason. When the daemon answers from its result cache,
// the returned status is already terminal (State done, Cached true).
func (c *Client) Submit(ctx context.Context, spec *server.JobSpec) (*server.JobStatus, error) {
	return c.SubmitWithKey(ctx, spec, NewIdempotencyKey())
}

// SubmitWithKey is Submit with a caller-supplied Idempotency-Key (""
// submits without one, disabling dedup but keeping the retry loop).
func (c *Client) SubmitWithKey(ctx context.Context, spec *server.JobSpec, key string) (*server.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := c.withRetry(ctx, "submit", func() (*http.Response, error) {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
		if rerr != nil {
			return nil, rerr
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		return c.hc.Do(req)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, &APIError{StatusCode: resp.StatusCode, Message: errorMessage(resp)}
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("client: decode submit response: %w", err)
	}
	return &st, nil
}

// Job fetches one job's current status.
func (c *Client) Job(ctx context.Context, id string) (*server.JobStatus, error) {
	var st server.JobStatus
	if err := c.getJSON(ctx, "/v1/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Report fetches a completed job's campaign report.
func (c *Client) Report(ctx context.Context, id string) (*goldeneye.CampaignReport, error) {
	var rep goldeneye.CampaignReport
	if err := c.getJSON(ctx, "/v1/jobs/"+id+"/report", &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Cancel requests cancellation of a queued or running job. Cancellation
// is idempotent server-side, so retried cancels are safe.
func (c *Client) Cancel(ctx context.Context, id string) error {
	resp, err := c.withRetry(ctx, "cancel", func() (*http.Response, error) {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs/"+id+"/cancel", nil)
		if rerr != nil {
			return nil, rerr
		}
		return c.hc.Do(req)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &APIError{StatusCode: resp.StatusCode, Message: errorMessage(resp)}
	}
	return nil
}

// Ready probes /readyz: nil when the daemon accepts new jobs, a
// *NotReadyError carrying the daemon's reason when it answers 503
// (draining, or its journal went unwritable). It does not retry: a
// probe's job is to report failures, not to paper over them.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusServiceUnavailable:
		var body struct {
			Reason string `json:"reason"`
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(raw, &body) != nil || body.Reason == "" {
			body.Reason = strings.TrimSpace(string(raw))
		}
		return &NotReadyError{Reason: body.Reason}
	default:
		return &APIError{StatusCode: resp.StatusCode, Message: errorMessage(resp)}
	}
}

// Stream follows a job's SSE progress stream until it is terminal,
// transparently reconnecting after drops and stalls: every frame's event
// id (the job's monotonic progress sequence) is remembered and replayed
// as Last-Event-ID on reconnect, so the daemon suppresses snapshots the
// client already saw and a resumed stream picks up exactly where it
// left off — including across a daemon crash and journal-replay restart.
// Every progress snapshot is handed to onProgress (may be nil); the
// returned report is non-nil exactly when the job completed (the "done"
// event carries the full report, so no extra round trip happens). A
// failed job returns an *APIError with the daemon's failure reason; a
// cancelled job returns ErrCancelled.
func (c *Client) Stream(ctx context.Context, id string, onProgress func(server.JobStatus)) (*goldeneye.CampaignReport, error) {
	lastID := int64(-1)
	failures := 0
	for {
		rep, err := c.streamOnce(ctx, id, &lastID, &failures, onProgress)
		if err == nil {
			return rep, nil
		}
		var retry *streamRetryError
		if !errors.As(err, &retry) || ctx.Err() != nil {
			return nil, err
		}
		// failures counts consecutive fruitless connections; streamOnce
		// zeroes it whenever a frame arrives, so a long campaign survives
		// any number of occasional drops.
		failures++
		if failures >= c.opts.MaxAttempts {
			return nil, fmt.Errorf("client: stream for %s did not recover after %d attempts: %w",
				id, failures, retry.err)
		}
		c.countRetry("stream")
		if serr := sleepCtx(ctx, c.backoff(failures-1)); serr != nil {
			return nil, err
		}
	}
}

// streamRetryError wraps stream interruptions the reconnect loop should
// absorb: transport errors, mid-stream disconnects, idle-watchdog
// closes, and retryable HTTP statuses on reconnect.
type streamRetryError struct {
	err error
}

func (e *streamRetryError) Error() string {
	return fmt.Sprintf("client: stream interrupted: %v", e.err)
}
func (e *streamRetryError) Unwrap() error { return e.err }

// streamOnce runs one SSE connection until a terminal event, an error,
// or an interruption (returned as *streamRetryError for the caller's
// reconnect loop).
func (c *Client) streamOnce(ctx context.Context, id string, lastID *int64, failures *int, onProgress func(server.JobStatus)) (*goldeneye.CampaignReport, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *lastID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(*lastID, 10))
		c.reg.Counter(MetricSSEResumes).Inc()
	}
	resp, err := c.sc.Do(req)
	if err != nil {
		return nil, &streamRetryError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: errorMessage(resp)}
		if retryableStatus(resp.StatusCode) {
			return nil, &streamRetryError{err: apiErr}
		}
		return nil, apiErr
	}

	var body io.Reader = resp.Body
	if c.opts.StreamIdleTimeout > 0 {
		ib := newIdleBody(resp.Body, c.opts.StreamIdleTimeout)
		defer ib.Close()
		body = ib
	}
	sc := newEventScanner(body)
	for {
		ev, err := sc.next()
		if err != nil {
			// EOF before a terminal event, a dropped connection, or the
			// idle watchdog closing a stalled stream: all reconnectable.
			return nil, &streamRetryError{err: err}
		}
		*failures = 0
		if ev.id != "" {
			if v, perr := strconv.ParseInt(ev.id, 10, 64); perr == nil && v > *lastID {
				*lastID = v
			}
		}
		switch ev.name {
		case "progress":
			if onProgress != nil {
				var st server.JobStatus
				if json.Unmarshal(ev.data, &st) == nil {
					onProgress(st)
				}
			}
		case "done":
			var rep goldeneye.CampaignReport
			if err := json.Unmarshal(ev.data, &rep); err != nil {
				return nil, fmt.Errorf("client: decode report: %w", err)
			}
			return &rep, nil
		case "failed":
			var st server.JobStatus
			msg := string(ev.data)
			if json.Unmarshal(ev.data, &st) == nil && st.Error != "" {
				msg = st.Error
			}
			return nil, &APIError{StatusCode: http.StatusInternalServerError, Message: msg}
		case "cancelled":
			return nil, ErrCancelled
		}
	}
}

// Run submits a job and follows it to completion, returning the final
// report. Cache hits return immediately without opening a stream.
func (c *Client) Run(ctx context.Context, spec *server.JobSpec, onProgress func(server.JobStatus)) (*goldeneye.CampaignReport, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	if st.State == server.JobDone {
		return c.Report(ctx, st.ID)
	}
	return c.Stream(ctx, st.ID, onProgress)
}

// withRetry runs fn (which must build a fresh request per call) until it
// returns a response with a non-retryable status, retries are exhausted,
// or ctx ends. Retryable means a transport error or a 429/502/503/504
// status; the caller classifies whatever status comes back.
func (c *Client) withRetry(ctx context.Context, op string, fn func() (*http.Response, error)) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := fn()
		if err == nil && !retryableStatus(resp.StatusCode) {
			return resp, nil
		}
		wait := c.backoff(attempt)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
		} else {
			msg := errorMessage(resp)
			if resp.StatusCode == http.StatusTooManyRequests {
				retry := 2 * time.Second
				if ra := retryAfterHint(resp); ra > 0 {
					retry = ra
					wait = ra
				}
				lastErr = &QueueFullError{RetryAfter: retry, Message: msg}
			} else {
				lastErr = &APIError{StatusCode: resp.StatusCode, Message: msg}
			}
			resp.Body.Close()
		}
		if attempt+1 >= c.opts.MaxAttempts {
			return nil, lastErr
		}
		c.countRetry(op)
		if serr := sleepCtx(ctx, wait); serr != nil {
			return nil, lastErr
		}
	}
}

// retryableStatus: 429 means the queue will drain, 502/503/504 mean the
// daemon (or something in front of it) is briefly gone — a restarting
// daemon with a journal comes back holding the same jobs.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryAfterHint parses a Retry-After header in either form RFC 9110
// §10.2.3 allows: delay-seconds ("120"), or an HTTP-date ("Fri, 08 Aug
// 2026 14:00:00 GMT") converted to the delay from now. Returns 0 — fall
// back to generic backoff — when the header is absent, unparseable, zero,
// negative, or a date already in the past.
func retryAfterHint(resp *http.Response) time.Duration {
	v := strings.TrimSpace(resp.Header.Get("Retry-After"))
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs > 0 {
			return time.Duration(secs) * time.Second
		}
		return 0
	}
	// http.ParseTime accepts all three HTTP-date layouts (IMF-fixdate,
	// RFC 850, asctime).
	if when, err := http.ParseTime(v); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}

// backoff computes the jittered exponential delay before retry number
// attempt+1. Full jitter across [d/2, d] decorrelates retry herds: a
// burst of rejected clients must not re-land on the daemon in lockstep.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.BaseBackoff
	for i := 0; i < attempt && d < c.opts.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

func (c *Client) countRetry(op string) {
	c.reg.Counter(telemetry.Label(MetricRetries, "op", op)).Inc()
}

// sleepCtx waits d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Client) getJSON(ctx context.Context, path string, v interface{}) error {
	resp, err := c.withRetry(ctx, "get", func() (*http.Response, error) {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
		if rerr != nil {
			return nil, rerr
		}
		return c.hc.Do(req)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &APIError{StatusCode: resp.StatusCode, Message: errorMessage(resp)}
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// errorMessage extracts the daemon's {"error": ...} payload, falling back
// to the raw body.
func errorMessage(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

// idleBody is the SSE idle watchdog: it closes the underlying response
// body when no bytes arrive for d, forcing the blocked Read to fail so
// the reconnect loop takes over. The daemon's comment heartbeats reset
// it, so only a genuinely stalled connection trips.
type idleBody struct {
	rc    io.ReadCloser
	d     time.Duration
	timer *time.Timer
}

func newIdleBody(rc io.ReadCloser, d time.Duration) *idleBody {
	b := &idleBody{rc: rc, d: d}
	b.timer = time.AfterFunc(d, func() { rc.Close() })
	return b
}

func (b *idleBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if err == nil {
		b.timer.Reset(b.d)
	}
	return n, err
}

func (b *idleBody) Close() error {
	b.timer.Stop()
	return b.rc.Close()
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	name string
	id   string
	data []byte
}

// eventScanner parses SSE frames: "event:"/"id:"/"data:" field lines
// separated by blank-line dispatch, per the WHATWG EventSource framing.
type eventScanner struct {
	r *bufio.Reader
}

func newEventScanner(r io.Reader) *eventScanner {
	return &eventScanner{r: bufio.NewReader(r)}
}

// next returns the following complete event. Multi-line data fields are
// joined with newlines; comment lines (leading ':') are skipped.
func (s *eventScanner) next() (sseEvent, error) {
	var ev sseEvent
	var dataLines [][]byte
	for {
		line, err := s.r.ReadString('\n')
		if err != nil {
			return sseEvent{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if ev.name != "" || len(dataLines) > 0 {
				ev.data = bytes.Join(dataLines, []byte("\n"))
				return ev, nil
			}
		case strings.HasPrefix(line, ":"):
			// comment / keep-alive
		case strings.HasPrefix(line, "event:"):
			ev.name = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "id:"):
			ev.id = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "data:"):
			dataLines = append(dataLines, []byte(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")))
		}
	}
}
