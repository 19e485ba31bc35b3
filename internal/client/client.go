// Package client is a small retrying HTTP client for rlckit's serving
// layer: it POSTs JSON request bodies to a rlckitd-compatible server
// and retries the transient failure classes the server documents —
// 429 admission rejections, 503 shutdown/cancellation responses, 5xx
// faults, and network errors — with capped exponential backoff and
// deterministic jitter. Permanent rejections (400s: the request's
// physics is wrong) are never retried.
//
// The server's Retry-After hint is honored when present: an adaptive
// hint from the server's compute-slot queue beats a blind backoff
// curve. Either way the delay is capped at MaxDelay, and the caller's
// context cancels a sleeping retry immediately.
//
// The serving layer's responses are pure functions of the request
// body, so retries are safe by construction; the chaos suite
// (internal/chaos) asserts a retried request returns byte-identical
// bytes.
package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Config tunes a Client. The zero value retries 4 times starting at
// 50 ms, capped at 2 s per wait.
type Config struct {
	// MaxRetries is the number of re-attempts after the first try;
	// 0 means DefaultMaxRetries, negative disables retries.
	MaxRetries int
	// BaseDelay is the first backoff wait (doubled each retry);
	// 0 means DefaultBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps every wait, including server Retry-After hints;
	// 0 means DefaultMaxDelay.
	MaxDelay time.Duration
	// Seed makes the jitter sequence reproducible; 0 seeds from 1.
	Seed int64
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
}

// Client defaults.
const (
	DefaultMaxRetries = 4
	DefaultBaseDelay  = 50 * time.Millisecond
	DefaultMaxDelay   = 2 * time.Second
)

// Client posts JSON to one rlckit server with retries. It is safe for
// concurrent use.
type Client struct {
	base    string
	cfg     Config
	retries int
	http    *http.Client
}

// New builds a Client for the server at base URL (e.g.
// "http://127.0.0.1:8080").
func New(base string, cfg Config) *Client {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = DefaultBaseDelay
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = DefaultMaxDelay
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	retries := cfg.MaxRetries
	if retries < 0 {
		retries = 0
	}
	h := cfg.HTTP
	if h == nil {
		h = http.DefaultClient
	}
	return &Client{base: base, cfg: cfg, retries: retries, http: h}
}

// Response is one completed exchange: the final status and body, plus
// how many retries it took.
type Response struct {
	Status  int
	Body    []byte
	Retries int
	// Cache is the server's X-Cache header ("hit", "miss", or empty).
	Cache string
}

// retryable reports whether a status is a transient failure class.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// splitmix64 is the deterministic jitter source (same finalizer as
// internal/pool's seeding) — no global rand, no locks.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// backoff computes the wait before re-attempt `attempt` (1-based):
// the server's Retry-After hint when given, else BaseDelay doubled per
// attempt but saturating at MaxDelay — the doubling stops at the cap,
// so a large attempt count cannot shift the Duration into overflow.
// Either way the wait is jittered ±25% and capped at MaxDelay.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.cfg.BaseDelay
	for i := 1; i < attempt; i++ {
		if d >= c.cfg.MaxDelay {
			break
		}
		d <<= 1
		if d <= 0 {
			// Doubling overflowed (MaxDelay is in the top half of the
			// Duration range): saturate at the cap.
			d = c.cfg.MaxDelay
			break
		}
	}
	if retryAfter > 0 {
		d = retryAfter
	}
	if d > c.cfg.MaxDelay {
		d = c.cfg.MaxDelay
	}
	// Deterministic jitter in [−25%, +25%) from (seed, attempt).
	h := splitmix64(uint64(c.cfg.Seed) ^ uint64(attempt)*0x9e3779b97f4a7c15)
	frac := float64(h>>11)/(1<<53) - 0.5
	d += time.Duration(frac * 0.5 * float64(d))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// parseRetryAfter reads a Retry-After header in delta-seconds form
// (the only form the server emits); 0 means absent or unparseable.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// PostJSON posts body to path (e.g. "/v1/delay") under ctx, retrying
// transient failures. It returns the final response — whose status may
// still be non-2xx once retries are exhausted or for permanent (4xx)
// rejections — or an error when the network failed on every attempt or
// ctx fired.
func (c *Client) PostJSON(ctx context.Context, path string, body []byte) (*Response, error) {
	return c.Do(ctx, "POST", path, body)
}

// Delete issues DELETE to path (e.g. "/v1/session/s1") with the same
// retry policy as PostJSON. Session deletion is idempotent server-side
// (a repeat delete answers 404), so retrying it is safe.
func (c *Client) Delete(ctx context.Context, path string) (*Response, error) {
	return c.Do(ctx, "DELETE", path, nil)
}

// Do issues one method/path/body exchange under the retry policy; see
// PostJSON. All rlckitd endpoints are safe to retry: responses are pure
// functions of the body, and the one mutating verb (session DELETE) is
// idempotent.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (*Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		ar, err := c.do(ctx, method, path, body)
		if err == nil && !retryable(ar.Status) {
			ar.Retries = attempt
			return &ar.Response, nil
		}
		var retryAfter time.Duration
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
		} else {
			lastErr = fmt.Errorf("client: %s: status %d: %s", path, ar.Status, bytes.TrimSpace(ar.Body))
			retryAfter = ar.retryAfter
		}
		if attempt == c.retries {
			if err == nil {
				// Retries exhausted on a retryable status: hand the final
				// response to the caller rather than hiding it in an error.
				ar.Retries = attempt
				return &ar.Response, nil
			}
			return nil, lastErr
		}
		wait := c.backoff(attempt+1, retryAfter)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// do is one attempt.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*attemptResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &attemptResponse{
		Response:   Response{Status: resp.StatusCode, Body: b, Cache: resp.Header.Get("X-Cache")},
		retryAfter: parseRetryAfter(resp.Header),
	}, nil
}

type attemptResponse struct {
	Response
	retryAfter time.Duration
}
