package chaos

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// echoBackend returns a plain HTTP server and its host:port.
func echoBackend(t *testing.T, body string) (*httptest.Server, string) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts, strings.TrimPrefix(ts.URL, "http://")
}

func TestProxyForwards(t *testing.T) {
	_, addr := echoBackend(t, "hello")
	p, err := NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	resp, err := http.Get(p.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "hello" {
		t.Errorf("body: %q", b)
	}
	if p.Accepted() != 1 {
		t.Errorf("accepted: %d", p.Accepted())
	}
}

// TestProxyDropActive: an in-flight streaming response dies mid-read when
// the proxy drops connections.
func TestProxyDropActive(t *testing.T) {
	started := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl := w.(http.Flusher)
		io.WriteString(w, "chunk-1\n")
		fl.Flush()
		close(started)
		<-r.Context().Done()
	}))
	defer ts.Close()
	p, err := NewProxy(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	resp, err := http.Get(p.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 64)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	<-started
	if n := p.DropActive(); n == 0 {
		t.Fatal("no active connections to drop")
	}
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Error("read survived a dropped connection")
	}
}

// TestProxyStall: bytes stop flowing while stalled and resume after
// Unstall — the connection itself stays up. A replies-only stall lets the
// request reach the backend and holds back just the answer.
func TestProxyStall(t *testing.T) {
	for _, tc := range []struct {
		name        string
		stall       func(*Proxy)
		reachesBack bool
	}{
		{"all", (*Proxy).Stall, false},
		{"replies", (*Proxy).StallReplies, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reached := make(chan struct{}, 1)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				reached <- struct{}{}
				io.WriteString(w, "payload")
			}))
			defer ts.Close()
			p, err := NewProxy(strings.TrimPrefix(ts.URL, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			tc.stall(p)
			got := make(chan error, 1)
			go func() {
				resp, err := http.Get(p.URL())
				if err != nil {
					got <- err
					return
				}
				defer resp.Body.Close()
				_, err = io.ReadAll(resp.Body)
				got <- err
			}()
			select {
			case err := <-got:
				t.Fatalf("request completed while stalled (err=%v)", err)
			case <-time.After(150 * time.Millisecond):
			}
			select {
			case <-reached:
				if !tc.reachesBack {
					t.Fatal("request reached the backend through a full stall")
				}
			default:
				if tc.reachesBack {
					t.Fatal("request did not reach the backend through a replies-only stall")
				}
			}
			p.Unstall()
			select {
			case err := <-got:
				if err != nil {
					t.Fatalf("request after unstall: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("request did not complete after unstall")
			}
		})
	}
}

// TestProxyRetarget: new connections follow SetTarget — the daemon-restart
// shape, where the backend comes back on a different port.
func TestProxyRetarget(t *testing.T) {
	_, addrA := echoBackend(t, "A")
	_, addrB := echoBackend(t, "B")
	p, err := NewProxy(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Keep-alive reuse would pin the old tunnel; a retargeted backend only
	// serves fresh connections, so the client must dial anew (as it does
	// after DropActive severs the stale ones).
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	get := func() string {
		resp, err := client.Get(p.URL())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if got := get(); got != "A" {
		t.Fatalf("before retarget: %q", got)
	}
	p.SetTarget(addrB)
	p.DropActive()
	if got := get(); got != "B" {
		t.Fatalf("after retarget: %q", got)
	}
}

// TestProxyDeadBackend: a proxy whose target refuses connections fails the
// request rather than hanging — what a client sees between daemon death
// and restart.
func TestProxyDeadBackend(t *testing.T) {
	// Grab a port nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	p, err := NewProxy(dead)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	client := &http.Client{Timeout: 2 * time.Second}
	if _, err := client.Get(p.URL()); err == nil {
		t.Error("request to dead backend succeeded")
	}
}

func TestFlakyTransport(t *testing.T) {
	ts, _ := echoBackend(t, "ok")
	ft := Flaky(2)
	client := &http.Client{Transport: ft}

	for i := 0; i < 2; i++ {
		if _, err := client.Get(ts.URL); !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d: want injected failure, got %v", i, err)
		}
	}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatalf("third attempt: %v", err)
	}
	resp.Body.Close()
	if ft.Attempts() != 3 || ft.Failed() != 2 {
		t.Errorf("attempts=%d failed=%d, want 3/2", ft.Attempts(), ft.Failed())
	}

	ft.FailNext(1)
	if _, err := client.Get(ts.URL); err == nil {
		t.Error("FailNext did not arm a failure")
	}
}

func TestBurst(t *testing.T) {
	var calls atomic.Int64
	errs := Burst(16, func(i int) error {
		calls.Add(1)
		if i%4 == 0 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if calls.Load() != 16 {
		t.Errorf("calls: %d", calls.Load())
	}
	if len(errs) != 4 {
		t.Errorf("errors: %v", errs)
	}
}
