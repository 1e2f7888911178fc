// Package chaos is the failpoint harness the campaign-service resilience
// tests drive: a TCP proxy that drops connections, stalls streams, and
// retargets mid-flight (so a client survives a daemon restart on a new
// port), plus an http.RoundTripper that fails a scripted number of
// requests. Tests compose these with a real SIGKILL of the goldeneyed
// process to prove end to end that client retries + the job journal + the
// result cache recover every job with reports byte-identical to an
// unfailed run.
//
// Everything here is deliberately mechanism-free of the server: chaos acts
// at the transport boundary, the same place real infrastructure fails.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
)

// Proxy is a TCP chaos proxy. It listens on a stable local address and
// forwards byte streams to a retargetable backend, which lets a test keep
// one client-visible address across a backend crash + restart — exactly the
// shape of a daemon behind a load balancer or a stable DNS name.
type Proxy struct {
	ln net.Listener

	mu      sync.Mutex
	target  string
	conns   map[net.Conn]struct{} // accepted client conns, for DropActive
	stallCh chan struct{}         // non-nil while stalled; closed to release
	replies bool                  // the stall holds only backend-to-client bytes
	closed  bool

	accepted atomic.Int64
}

// NewProxy starts a proxy on a random loopback port forwarding to target
// ("host:port"). Close it when done.
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: proxy listen: %w", err)
	}
	p := &Proxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address ("127.0.0.1:port").
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's address as an http base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetTarget points the proxy at a new backend. Existing connections keep
// their old backend (drop them explicitly to force clients over).
func (p *Proxy) SetTarget(target string) {
	p.mu.Lock()
	p.target = target
	p.mu.Unlock()
}

// DropActive severs every in-flight connection, returning how many were
// cut. Clients see a mid-stream connection reset — the "switch died"
// failure mode.
func (p *Proxy) DropActive() int {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// Stall freezes all forwarding (connections stay open, no bytes move) until
// Unstall. This is the hung-middlebox failure an SSE idle watchdog must
// detect: the TCP session is alive but silent.
func (p *Proxy) Stall() { p.stall(false) }

// StallReplies freezes forwarding from the backend only, until Unstall:
// requests still reach the backend, which acts on them, but none of its
// answers reach a client — a backend whose work cannot be delivered.
func (p *Proxy) StallReplies() { p.stall(true) }

func (p *Proxy) stall(replies bool) {
	p.mu.Lock()
	if p.stallCh == nil {
		p.stallCh = make(chan struct{})
	}
	p.replies = replies
	p.mu.Unlock()
}

// Unstall releases a Stall, letting buffered bytes flow again.
func (p *Proxy) Unstall() {
	p.mu.Lock()
	if p.stallCh != nil {
		close(p.stallCh)
		p.stallCh = nil
	}
	p.mu.Unlock()
}

// Accepted returns how many client connections the proxy has accepted.
func (p *Proxy) Accepted() int64 { return p.accepted.Load() }

// Close stops the proxy and severs all connections.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.DropActive()
}

func (p *Proxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			return
		}
		target := p.target
		p.conns[c] = struct{}{}
		p.mu.Unlock()
		p.accepted.Add(1)
		go p.forward(c, target)
	}
}

func (p *Proxy) forward(client net.Conn, target string) {
	defer func() {
		client.Close()
		p.mu.Lock()
		delete(p.conns, client)
		p.mu.Unlock()
	}()
	backend, err := net.Dial("tcp", target)
	if err != nil {
		return // client sees the close as a refused/reset connection
	}
	defer backend.Close()
	done := make(chan struct{}, 2)
	pipe := func(dst, src net.Conn, reply bool) {
		buf := make([]byte, 32<<10)
		for {
			n, rerr := src.Read(buf)
			if n > 0 {
				p.gate(reply)
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
			if rerr != nil {
				break
			}
		}
		// Half-close so the peer's read loop unwinds promptly.
		if tc, ok := dst.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}
	go pipe(backend, client, false)
	go pipe(client, backend, true)
	<-done
	<-done
}

// gate blocks while the proxy stalls bytes flowing this way: reply bytes
// run from the backend to the client.
func (p *Proxy) gate(reply bool) {
	p.mu.Lock()
	ch := p.stallCh
	if !reply && p.replies {
		ch = nil
	}
	p.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

// ErrInjected is the transport failure FlakyTransport returns by default.
var ErrInjected = errors.New("chaos: injected transport failure")

// FlakyTransport is an http.RoundTripper failpoint: the first Fail round
// trips error out before reaching the network, the rest pass through. It
// drives the client retry/backoff tests without a real network fault.
type FlakyTransport struct {
	// Base handles the surviving requests (nil = http.DefaultTransport).
	Base http.RoundTripper

	// Err is returned by failed round trips (nil = ErrInjected).
	Err error

	mu       sync.Mutex
	fail     int
	attempts int64
	failed   int64
}

// Flaky returns a transport whose first n round trips fail with
// ErrInjected.
func Flaky(n int) *FlakyTransport {
	return &FlakyTransport{fail: n}
}

// RoundTrip implements http.RoundTripper.
func (t *FlakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	t.attempts++
	inject := t.fail > 0
	if inject {
		t.fail--
		t.failed++
	}
	t.mu.Unlock()
	if inject {
		// Drain and close the body like a real transport would on failure.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		if t.Err != nil {
			return nil, t.Err
		}
		return nil, ErrInjected
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// FailNext arms n more failures (on top of any still pending).
func (t *FlakyTransport) FailNext(n int) {
	t.mu.Lock()
	t.fail += n
	t.mu.Unlock()
}

// Attempts returns total round trips seen; Failed how many were injected
// failures.
func (t *FlakyTransport) Attempts() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempts
}

func (t *FlakyTransport) Failed() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed
}

// Burst runs fn n times concurrently and returns the non-nil errors — the
// full-queue burst scenario in one call.
func Burst(n int, fn func(i int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	var out []error
	for _, err := range errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}
