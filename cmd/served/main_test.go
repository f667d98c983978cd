package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// startServer serves h through newHTTPServer with the given timeouts on a
// loopback listener and returns its address.
func startServer(t *testing.T, h http.Handler, readHeader, read, idle time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(h, readHeader, read, idle)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestStalledHeadersDisconnected sends half a request and then nothing:
// the server must hang up once the header timeout passes, long before the
// client's own patience runs out.
func TestStalledHeadersDisconnected(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	addr := startServer(t, ok, 200*time.Millisecond, time.Second, time.Second)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 64))
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server kept a stalled connection open for %v", time.Since(start))
	}
	if err == nil {
		t.Fatalf("server answered a request whose headers never ended (%d bytes)", n)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("disconnect took %v", waited)
	}
}

// TestIdleConnectionClosed leaves a keep-alive connection idle after one
// request: the server must close it after the idle timeout.
func TestIdleConnectionClosed(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	addr := startServer(t, ok, time.Second, time.Second, 200*time.Millisecond)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle keep-alive connection: read error %v, want EOF", err)
	}
}

// TestLongResponseOutlivesReadTimeout checks that the read timeout bounds
// only the request: a handler that streams for longer, as the events
// endpoint does, keeps its context and finishes its response.
func TestLongResponseOutlivesReadTimeout(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
			io.WriteString(w, "canceled")
		case <-time.After(600 * time.Millisecond):
			io.WriteString(w, "done")
		}
	})
	addr := startServer(t, slow, 100*time.Millisecond, 200*time.Millisecond, time.Second)
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "done" {
		t.Fatalf("streaming response: %q, want done", body)
	}
}
