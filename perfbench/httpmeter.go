package main

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// meteredHandler wraps a server-side handler and measures its GETs: how
// many, how many response bytes, and how long each took to serve.
type meteredHandler struct {
	next http.Handler
	tr   *tracer
	name string

	mu    sync.Mutex
	gets  int64
	bytes int64
	ms    []float64
}

func (m *meteredHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		m.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	sp := m.tr.start(m.name, nil)
	start := time.Now()
	m.next.ServeHTTP(cw, r)
	d := time.Since(start)
	sp.set("bytes", cw.n)
	sp.end()
	m.mu.Lock()
	m.gets++
	m.bytes += cw.n
	m.ms = append(m.ms, float64(d.Nanoseconds())/1e6)
	m.mu.Unlock()
}

// take returns the counts since the last take and resets them.
func (m *meteredHandler) take() (gets, bytes int64, ms []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gets, bytes, ms = m.gets, m.bytes, m.ms
	m.gets, m.bytes, m.ms = 0, 0, nil
	return gets, bytes, ms
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// meteredTransport wraps a client's RoundTripper. It counts requests and
// failed requests (transport errors and 5xx answers), and times artifact
// downloads from the request to the end of the body.
type meteredTransport struct {
	next http.RoundTripper
	tr   *tracer

	mu         sync.Mutex
	requests   int64
	failures   int64
	fetchNS    int64
	fetchBytes int64
}

func (t *meteredTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	fetch := r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/artifacts/")
	var sp *openSpan
	if fetch {
		sp = t.tr.start("store.fetch", nil)
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(r)
	t.mu.Lock()
	t.requests++
	if err != nil || resp.StatusCode >= 500 {
		t.failures++
	}
	t.mu.Unlock()
	if err != nil || !fetch {
		sp.end()
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: t, sp: sp, start: start}
	return resp, nil
}

// timedBody attributes an artifact body's bytes and transfer time to its
// transport when the body is closed.
type timedBody struct {
	io.ReadCloser
	t     *meteredTransport
	sp    *openSpan
	start time.Time
	n     int64
	once  sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.set("bytes", b.n)
		b.sp.end()
		b.t.mu.Lock()
		b.t.fetchNS += time.Since(b.start).Nanoseconds()
		b.t.fetchBytes += b.n
		b.t.mu.Unlock()
	})
	return err
}
