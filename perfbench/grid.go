package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"sync"
	"time"

	"mlcache/internal/coord"
	"mlcache/internal/experiments"
	"mlcache/internal/store"
	"mlcache/internal/sweep"
)

// gridRefs is the distributed grid's trace length.
const gridRefs = 1_000_000

// gridShards splits the grid into leases of three points. With the
// coordinator's default of eight shards of about eleven points, the
// worker that draws the last shard idles the other for up to a third of
// a second, and which one it is varies from run to run.
const gridShards = 30

// gridHeartbeat is also how long the coordinator tells a worker with
// nothing to lease to wait before asking again. The default, a fifth of
// the 10 s lease TTL, would leave a worker asleep for up to a second
// after the grid is done.
const gridHeartbeat = 250 * time.Millisecond

// gridSpec is the Figure 4-1-shaped grid the coordinator serves: L2 sizes
// 4 KB–1 MB by cycle times 1–10, 90 points, with the trace named only by
// its artifact digest.
func gridSpec(art artifact) coord.JobSpec {
	return coord.JobSpec{
		SizesBytes:     sweep.SizesPow2(4, 1024),
		CyclesNS:       sweep.CyclesRange(1, 10, experiments.CPUCycleNS),
		Assoc:          1,
		L1KB:           4,
		Refs:           gridRefs,
		ArtifactDigest: art.digest.String(),
		ArtifactCRC:    art.crc,
	}
}

// coordMeter wraps Coordinator.Handler in a traced pass. It times each
// protocol request and follows each worker's leases: a worker is busy from
// a lease grant to its shard's completion, and idle otherwise.
type coordMeter struct {
	next   http.Handler
	tr     *tracer
	parent *openSpan

	mu         sync.Mutex
	requests   int64
	grants     int64
	leaseMS    []float64
	completeMS []float64
	granted    map[string]time.Time
	busy       map[string]time.Duration
}

func (m *coordMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var who struct {
		Worker string `json:"worker"`
	}
	_ = json.Unmarshal(body, &who) // a malformed body is the coordinator's to reject
	rec := &recordingWriter{ResponseWriter: w}
	sp := m.tr.start("coord."+path.Base(r.URL.Path), m.parent)
	start := time.Now()
	m.next.ServeHTTP(rec, r)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	sp.end()
	now := time.Now()

	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests++
	switch r.URL.Path {
	case coord.PathLease:
		m.leaseMS = append(m.leaseMS, ms)
		var lr coord.LeaseResponse
		if json.Unmarshal(rec.body.Bytes(), &lr) == nil && !lr.Done && lr.WaitMS == 0 && lr.Shards > 0 {
			m.grants++
			m.granted[who.Worker] = now
		}
	case coord.PathComplete:
		m.completeMS = append(m.completeMS, ms)
		if t, ok := m.granted[who.Worker]; ok {
			m.busy[who.Worker] += now.Sub(t)
			delete(m.granted, who.Worker)
		}
	}
}

// recordingWriter keeps a copy of the response body.
type recordingWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.body.Write(p)
	return w.ResponseWriter.Write(p)
}

// gridPass is one grid's observations.
type gridPass struct {
	seconds float64
	table   string
	meter   *coordMeter
	fetchS  float64
	fetchB  int64
}

// runGrid serves one grid from a fresh coordinator to nproc workers whose
// artifact caches start empty, and returns once every point is merged and
// every worker has exited.
func runGrid(b *bench, tr *tracer, dir string, art artifact, artPath string, out *outcome) (*gridPass, error) {
	spec := gridSpec(art)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	client := &meteredTransport{next: transport, tr: tr}

	ps := tr.start("bench.pass", nil)
	start := time.Now()
	c, err := coord.New(coord.Config{Job: spec, Shards: gridShards, Heartbeat: gridHeartbeat})
	if err != nil {
		return nil, err
	}
	var api http.Handler = c.Handler()
	var meter *coordMeter
	if tr != nil {
		meter = &coordMeter{next: api, tr: tr, parent: ps, granted: map[string]time.Time{}, busy: map[string]time.Duration{}}
		api = meter
	}
	root := http.NewServeMux()
	root.Handle(store.PathArtifacts, &store.Handler{Source: store.Static{art.digest: artPath}})
	root.Handle("/", api)
	web := httptest.NewServer(root)
	defer web.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = c.Run(ctx) // ends when the grid is done or ctx is cancelled
	}()
	werrs := make([]error, b.nproc)
	caches := make([]*store.Cache, 0, b.nproc)
	// Dropping a cache would leave its artifact mapped; discarding the
	// artifact unmaps it, so memory does not grow with the pass count.
	defer func() {
		for _, cache := range caches {
			cache.Discard(art.digest)
		}
	}()
	for i := 0; i < b.nproc; i++ {
		cache, err := store.NewCache(filepath.Join(dir, fmt.Sprintf("worker%d", i)), 0)
		if err != nil {
			cancel()
			wg.Wait()
			return nil, err
		}
		caches = append(caches, cache)
		w := &coord.Worker{
			ID:          fmt.Sprintf("worker%d", i),
			Coordinator: web.URL,
			Client:      &http.Client{Transport: client},
			Parallelism: 1,
			Artifacts:   cache,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = w.Run(ctx)
		}(i)
	}
	waitErr := c.Wait(ctx)
	d := time.Since(start)
	ps.end()
	// A worker whose upload completed the grid is told so and exits; the
	// others exit at their next lease request.
	wg.Wait()
	if waitErr != nil {
		done, total := c.Done()
		return nil, fmt.Errorf("grid incomplete (%d of %d points): %w", done, total, waitErr)
	}

	out.attempted += 1 + client.requests
	out.failed += client.failures
	for i, err := range werrs {
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: worker%d: %v\n", i, err)
		}
	}
	results := c.Results()
	for _, r := range results {
		if r.Err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: point %v: %v\n", r.Point, r.Err)
		}
	}
	var table bytes.Buffer
	if err := sweep.WriteTable(&table, results, experiments.CPUCycleNS, false); err != nil {
		return nil, err
	}
	return &gridPass{
		seconds: d.Seconds(),
		table:   table.String(),
		meter:   meter,
		fetchS:  float64(client.fetchNS) / 1e9,
		fetchB:  client.fetchBytes,
	}, nil
}

// runDistributedGrid serves one grid per pass through an in-process
// coordinator to nproc workers over loopback HTTP.
func runDistributedGrid(b *bench, out *outcome) error {
	var (
		art     artifact
		artPath string
		n       int
	)
	drop := func() {
		if artPath != "" {
			os.Remove(artPath)
		}
		art, artPath = artifact{}, ""
	}
	err := setupSeconds(out, drop, func() error {
		sp := b.spans.start("bench.setup", nil)
		defer sp.end()
		arena, err := genTrace(b.spans, sp, b.seed, gridRefs)
		if err != nil {
			return err
		}
		n++
		artPath = filepath.Join(b.tmp, fmt.Sprintf("grid-%d.mlca", n))
		pub := b.spans.start("store.publish", sp)
		art, _, err = writeArtifact(artPath, arena)
		pub.end()
		return err
	})
	if err != nil {
		return err
	}

	var (
		tables []string
		passes = map[*phase][]*gridPass{}
	)
	pass := func(tr *tracer, ph *phase) (time.Duration, error) {
		n++
		dir := filepath.Join(b.tmp, fmt.Sprintf("pass-%d", n))
		defer os.RemoveAll(dir)
		gp, err := runGrid(b, tr, dir, art, artPath, out)
		if err != nil {
			return 0, err
		}
		ph.passes = append(ph.passes, gp.seconds)
		tables = append(tables, gp.table)
		passes[ph] = append(passes[ph], gp)
		return time.Duration(gp.seconds * float64(time.Second)), nil
	}
	_, traced, err := measure(b, out, pass)
	if err != nil {
		return err
	}

	want, err := referenceTable(gridSpec(art), art.arena, b.nproc)
	out.attempted++
	if err != nil {
		out.mismatch("reference run: %v", err)
	}
	for i, got := range tables {
		if err == nil && got != want {
			out.mismatch("grid %d: merged table differs from the in-process full-plan table", i+1)
		}
	}

	if b.traced {
		traceLayers(b.spans, out)
		var lease, complete, requests, retries, idle, fetchS, fetchB []float64
		shards := float64(gridShards)
		for _, gp := range passes[traced] {
			m := gp.meter
			lease = append(lease, m.leaseMS...)
			complete = append(complete, m.completeMS...)
			requests = append(requests, float64(m.requests))
			retries = append(retries, float64(m.grants)-shards)
			var busy time.Duration
			for _, d := range m.busy {
				busy += d
			}
			idle = append(idle, float64(b.nproc)*gp.seconds-busy.Seconds())
			fetchS = append(fetchS, gp.fetchS)
			fetchB = append(fetchB, float64(gp.fetchB))
		}
		out.layer["coord.lease_ms"] = median(lease)
		out.layer["coord.complete_ms"] = median(complete)
		out.layer["coord.requests"] = median(requests)
		out.layer["coord.shard_retries"] = median(retries)
		out.layer["coord.worker_idle_s"] = median(idle)
		out.layer["store.fetch_s"] = median(fetchS)
		out.layer["store.fetch_bytes"] = median(fetchB)
	}
	return nil
}
