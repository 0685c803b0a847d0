package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlcache/internal/coord"
	"mlcache/internal/experiments"
	"mlcache/internal/serve"
	"mlcache/internal/store"
	"mlcache/internal/store/backend"
	"mlcache/internal/store/backend/fakes3"
	"mlcache/internal/sweep"
	"mlcache/internal/trace"
)

// serviceRefs is the trace length of every service-mix job, the quick
// sizing of the paper experiments.
const serviceRefs = 200_000

// jobKind classifies a service-mix job by what the server already holds.
type jobKind int

const (
	// coldJob names a workload the server has not seen.
	coldJob jobKind = iota
	// partialJob resubmits a seen workload over an overlapping grid.
	partialJob
	// warmJob resubmits an exact spec whose points are all cached.
	warmJob
)

// svcJob is one submission in a client's sequence. key names its spec for
// the table check.
type svcJob struct {
	kind jobKind
	key  string
	spec coord.JobSpec
}

// artifact is a published trace artifact: its content digest, its header
// checksum, and the arena it was written from.
type artifact struct {
	digest store.Digest
	crc    uint32
	arena  *trace.Arena
}

// Each client's seeds come from its own pool, and each round draws new
// ones, so which jobs hit the cache depends on the seed alone, not on how
// the clients interleave.
func synthSeed(seed int64, round, client int) int64 {
	return seed*1_000_000 + int64(round)*64 + int64(2*client) + 1
}

func artifactSeed(seed int64, round, client int) int64 {
	return seed*1_000_000 + int64(round)*64 + int64(2*client) + 2
}

// planClient builds one client's seeded job sequence for a round, in two
// phases. The fresh phase sends a cold synthetic job and a cold artifact
// job over grid G1, in seeded order, then a partial job over G2, which
// shares six of G1's nine points. The warm phase sends seven exact
// resubmissions of those three specs, drawn by the seed. The L2 sizes are
// fixed, since they set how much host work a point takes; the seed picks
// the cycle times, which do not. The shares of cold, partial and warm jobs
// are an assumption, not a measurement: README.md ("The service-mix
// shares") says what they rest on.
func planClient(seed int64, round, client int, art artifact) (fresh, warm []svcJob) {
	rng := rand.New(rand.NewSource(synthSeed(seed, round, client)))
	sizes := sweep.SizesPow2(32, 256)
	cycles := rng.Perm(10)[:3]
	sort.Ints(cycles)
	var cyclesNS []int64
	for _, c := range cycles {
		cyclesNS = append(cyclesNS, int64(c+1)*experiments.CPUCycleNS)
	}
	grid := func(spec coord.JobSpec, lo int) coord.JobSpec {
		spec.SizesBytes = sizes[lo : lo+3]
		spec.CyclesNS = cyclesNS
		spec.Assoc = 1
		spec.L1KB = 4
		spec.Refs = serviceRefs
		return spec
	}
	synthetic := coord.JobSpec{Seed: synthSeed(seed, round, client)}
	byDigest := coord.JobSpec{ArtifactDigest: art.digest.String(), ArtifactCRC: art.crc}
	name := fmt.Sprintf("client%d/", client)
	fresh = []svcJob{
		{coldJob, name + "synthetic/G1", grid(synthetic, 0)},
		{coldJob, name + "artifact/G1", grid(byDigest, 0)},
		{partialJob, name + "synthetic/G2", grid(synthetic, 1)},
	}
	if rng.Intn(2) == 1 {
		fresh[0], fresh[1] = fresh[1], fresh[0]
	}
	for w := 0; w < warmJobs; w++ {
		again := fresh[rng.Intn(len(fresh))]
		again.kind = warmJob
		warm = append(warm, again)
	}
	return fresh, warm
}

// warmJobs is how many resubmissions a client sends in a round's warm
// phase.
const warmJobs = 7

const (
	// svcArenaBudget bounds the server's workload cache. A round adds four
	// 3.2 MB workloads that no later round names, so a small budget keeps
	// memory independent of how many rounds a run fits.
	svcArenaBudget = 32 << 20
	// svcResultPoints bounds the server's result cache for the same
	// reason; a round caches 21 points per client.
	svcResultPoints = 512
)

// svcEnv is the service every round of a run posts to: a fake S3 bucket,
// a tiered artifact store over it, and one durable server.
type svcEnv struct {
	fake     *fakes3.Server
	s3Web    *httptest.Server
	s3Meter  *meteredHandler
	tiered   *backend.Tiered
	srv      *serve.Server
	web      *httptest.Server
	dir      string
	stateDir string
}

// startService starts the service under dir.
func startService(b *bench, dir string) (*svcEnv, error) {
	sp := b.spans.start("serve.start", nil)
	defer sp.end()
	env := &svcEnv{dir: dir, stateDir: filepath.Join(dir, "state")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	env.fake = fakes3.New(fakes3.Config{Bucket: "artifacts", AccessKey: "AKBENCH", SecretKey: "bench-secret"})
	env.s3Meter = &meteredHandler{next: env.fake, tr: b.spans, name: "store.remote_get"}
	env.s3Web = httptest.NewServer(env.s3Meter)
	remote, err := backend.NewS3(backend.S3Config{
		Endpoint:   env.s3Web.URL,
		Bucket:     "artifacts",
		AccessKey:  "AKBENCH",
		SecretKey:  "bench-secret",
		Insecure:   true, // loopback only
		HTTPClient: env.s3Web.Client(),
	})
	if err != nil {
		env.close()
		return nil, err
	}
	local, err := store.OpenFileStore(filepath.Join(dir, "tier"))
	if err != nil {
		env.close()
		return nil, err
	}
	env.tiered = backend.NewTiered(local, remote)
	env.srv, err = serve.New(serve.Config{
		MaxJobs:           b.nproc,
		Parallelism:       1,
		StateDir:          env.stateDir,
		Artifacts:         env.tiered,
		ArenaBudgetBytes:  svcArenaBudget,
		ResultCachePoints: svcResultPoints,
	})
	if err != nil {
		env.close()
		return nil, err
	}
	env.web = httptest.NewServer(env.srv.Handler())
	return env, nil
}

// close stops the servers; the journal is complete once it returns.
// Closing twice is harmless.
func (e *svcEnv) close() {
	if e.web != nil {
		e.web.Close()
		e.web = nil
	}
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
	if e.s3Web != nil {
		e.s3Web.Close()
		e.s3Web = nil
	}
}

// publish generates each client's artifact for a round and uploads it to
// the bucket, where only the tiered store's promotion will find it.
func (e *svcEnv) publish(b *bench, round int) ([]artifact, error) {
	sp := b.spans.start("bench.setup", nil)
	defer sp.end()
	var arts []artifact
	for c := 0; c < b.nproc; c++ {
		arena, err := genTrace(b.spans, sp, artifactSeed(b.seed, round, c), serviceRefs)
		if err != nil {
			return nil, err
		}
		pub := b.spans.start("store.publish", sp)
		path := filepath.Join(e.dir, fmt.Sprintf("round%d-client%d.mlca", round, c))
		art, raw, err := writeArtifact(path, arena)
		if err == nil {
			e.fake.PutObject(backend.ObjectKey("mlca/", art.digest), raw)
			err = os.Remove(path)
		}
		pub.end()
		if err != nil {
			return nil, err
		}
		art.arena = nil // the server holds its own copy once promoted
		arts = append(arts, art)
	}
	return arts, nil
}

// unpublish deletes a finished round's artifacts from both tiers.
func (e *svcEnv) unpublish(arts []artifact) error {
	for _, a := range arts {
		if err := e.tiered.Delete(context.Background(), a.digest); err != nil {
			return fmt.Errorf("deleting artifact %s: %w", a.digest, err)
		}
	}
	return nil
}

// writeArtifact writes arena as an MLCA artifact and returns its digest,
// header checksum and bytes.
func writeArtifact(path string, arena *trace.Arena) (artifact, []byte, error) {
	if err := trace.WriteArtifact(path, arena); err != nil {
		return artifact{}, nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return artifact{}, nil, err
	}
	crc, err := trace.ArtifactChecksum(path)
	if err != nil {
		return artifact{}, nil, err
	}
	return artifact{digest: store.DigestBytes(raw), crc: crc, arena: arena}, raw, nil
}

// jobResult is what one client saw of one job.
type jobResult struct {
	job svcJob
	// ms runs from the POST to the final NDJSON line; admitMS to the
	// response headers; firstMS to the first result line.
	ms, admitMS, firstMS float64
	table                string
	failed               bool
}

// jobLine is the subset of the server's NDJSON records the client reads.
type jobLine struct {
	Index  *int   `json:"index"`
	Done   bool   `json:"done"`
	Failed int    `json:"failed"`
	Error  string `json:"error"`
	Table  string `json:"table"`
}

// submit posts one job and reads its stream to the final line. A refused
// submission (429, 413, 503), any other error answer, a failed point or a
// stream without a table marks the result failed.
func submit(ctx context.Context, client *http.Client, base string, tr *tracer, job svcJob) jobResult {
	res := jobResult{job: job, failed: true}
	body, err := json.Marshal(job.spec)
	if err != nil {
		return res
	}
	sp := tr.start("serve.job", nil)
	sp.set("kind", int64(job.kind))
	defer sp.end()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	adm := tr.start("serve.admit", sp)
	resp, err := client.Do(req)
	adm.end()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: job %s: %v\n", job.key, err)
		return res
	}
	defer resp.Body.Close()
	res.admitMS = msSince(start)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		fmt.Fprintf(os.Stderr, "perfbench: job %s refused: %s: %s\n", job.key, resp.Status, strings.TrimSpace(string(msg)))
		return res
	}
	stream := tr.start("serve.stream", sp)
	defer stream.end()
	dec := json.NewDecoder(bufio.NewReader(resp.Body))
	for {
		var line jobLine
		if err := dec.Decode(&line); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: job %s: stream ended without a final line: %v\n", job.key, err)
			return res
		}
		if line.Index != nil && res.firstMS == 0 {
			res.firstMS = msSince(start)
		}
		if line.Done {
			res.ms = msSince(start)
			res.table = line.Table
			res.failed = line.Failed > 0 || line.Error != "" || line.Table == ""
			if res.failed {
				fmt.Fprintf(os.Stderr, "perfbench: job %s: %d failed points, error %q\n", job.key, line.Failed, line.Error)
			}
			return res
		}
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// svcStats accumulates one phase's service-mix observations.
type svcStats struct {
	ms                   map[jobKind][]float64
	admitMS, firstColdMS []float64
	jobs                 int64
	rounds               int
	seconds              float64
	counters             map[string]float64
	remoteGets, remoteB  int64
	remoteMS             []float64
}

// serverCounters are the /metrics samples the per-layer metrics use.
var serverCounters = []string{
	"mlcserve_points_total", "mlcserve_points_cached_total", "mlcserve_points_replayed_total",
	"mlcserve_refs_simulated_total", "mlcserve_arena_cache_hits_total", "mlcserve_arena_cache_misses_total",
}

// scrapeCounters reads the named unlabelled samples from the server's
// Prometheus text.
func scrapeCounters(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range serverCounters {
		want[n] = true
	}
	got := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("metric %s: %w", f[0], err)
			}
			got[f[0]] = v
		}
	}
	return got, sc.Err()
}

// svcRound records what a round served, for the table check.
type svcRound struct {
	specs  map[string]coord.JobSpec
	tables map[string]string
	// traceSeed maps each artifact digest to the seed that generated it.
	traceSeed map[string]int64
}

// runServiceMix drives a closed loop of nproc clients against one durable
// server. Every client waits for each job's final line before posting its
// next. A round is one sequence per client, over workloads no earlier
// round named, sent as a fresh phase and then a warm phase.
func runServiceMix(b *bench, out *outcome) error {
	var (
		env  *svcEnv
		arts []artifact
		n    int
	)
	drop := func() {
		if env != nil {
			env.close()
		}
		env, arts = nil, nil
	}
	err := setupSeconds(out, drop, func() error {
		n++
		e, err := startService(b, filepath.Join(b.tmp, fmt.Sprintf("service-%d", n)))
		if err != nil {
			return err
		}
		env = e
		arts, err = e.publish(b, 0)
		return err
	})
	if env != nil {
		defer env.close()
	}
	if err != nil {
		return err
	}
	client := env.web.Client()

	var (
		rounds []svcRound
		stats  = map[*phase]*svcStats{}
	)
	pass := func(tr *tracer, ph *phase) (time.Duration, error) {
		st := stats[ph]
		if st == nil {
			st = &svcStats{ms: map[jobKind][]float64{}, counters: map[string]float64{}}
			stats[ph] = st
		}
		r := len(rounds)
		if r > 0 {
			var err error
			if arts, err = env.publish(b, r); err != nil {
				return 0, err
			}
		}
		rec := svcRound{specs: map[string]coord.JobSpec{}, tables: map[string]string{}, traceSeed: map[string]int64{}}
		fresh := make([][]svcJob, b.nproc)
		warm := make([][]svcJob, b.nproc)
		for c := range fresh {
			fresh[c], warm[c] = planClient(b.seed, r, c, arts[c])
			rec.traceSeed[arts[c].digest.String()] = artifactSeed(b.seed, r, c)
		}
		var before map[string]float64
		if tr != nil {
			var err error
			if before, err = scrapeCounters(client, env.web.URL+"/metrics"); err != nil {
				return 0, fmt.Errorf("scraping /metrics: %w", err)
			}
		}
		env.s3Meter.take()

		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		results := make([][]jobResult, b.nproc)
		ps := tr.start("bench.pass", nil)
		start := time.Now()
		// Every client sends its fresh jobs, and once all have been
		// answered, its warm ones: warm jobs never wait behind another
		// client's simulation for a CPU.
		for _, plans := range [][][]svcJob{fresh, warm} {
			var wg sync.WaitGroup
			for c := range plans {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for _, job := range plans[c] {
						results[c] = append(results[c], submit(ctx, client, env.web.URL, tr, job))
					}
				}(c)
			}
			wg.Wait()
		}
		d := time.Since(start)
		ps.end()
		ph.passes = append(ph.passes, d.Seconds())
		st.seconds += d.Seconds()
		st.rounds++

		for _, rs := range results {
			for _, res := range rs {
				out.attempted++
				st.jobs++
				if res.failed {
					out.failed++
					continue
				}
				st.ms[res.job.kind] = append(st.ms[res.job.kind], res.ms)
				st.admitMS = append(st.admitMS, res.admitMS)
				if res.job.kind == coldJob {
					st.firstColdMS = append(st.firstColdMS, res.firstMS)
				}
				// A resubmission must stream the table its first
				// submission did.
				key := res.job.key
				if t, ok := rec.tables[key]; !ok {
					rec.tables[key] = res.table
					rec.specs[key] = res.job.spec
				} else if t != res.table {
					out.mismatch("round %d %s: resubmission's table differs from the first", r, key)
				}
			}
		}
		rounds = append(rounds, rec)
		if tr != nil {
			after, err := scrapeCounters(client, env.web.URL+"/metrics")
			if err != nil {
				return 0, fmt.Errorf("scraping /metrics: %w", err)
			}
			for k, v := range after {
				st.counters[k] += v - before[k]
			}
		}
		gets, bytes, ms := env.s3Meter.take()
		st.remoteGets += gets
		st.remoteB += bytes
		st.remoteMS = append(st.remoteMS, ms...)
		return d, env.unpublish(arts)
	}
	_, traced, err := measure(b, out, pass)
	if err != nil {
		return err
	}
	final, err := scrapeCounters(client, env.web.URL+"/metrics")
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	env.close()
	journal, err := dirBytes(env.stateDir)
	if err != nil {
		return err
	}

	if err := checkServiceTables(b, out, rounds); err != nil {
		return err
	}

	if b.traced {
		traceLayers(b.spans, out)
		st := stats[traced]
		out.layer["serve.cold_job_p50_ms"] = median(st.ms[coldJob])
		out.layer["serve.warm_job_p50_ms"] = median(st.ms[warmJob])
		out.layer["serve.cold_job_p90_ms"] = percentile(st.ms[coldJob], 0.9)
		out.layer["serve.warm_job_p90_ms"] = percentile(st.ms[warmJob], 0.9)
		out.layer["serve.cold_jobs"] = float64(len(st.ms[coldJob]))
		out.layer["serve.warm_jobs"] = float64(len(st.ms[warmJob]))
		out.layer["serve.jobs_per_s"] = ratio(float64(st.jobs), st.seconds)
		out.layer["serve.admit_ms"] = median(st.admitMS)
		out.layer["serve.first_point_ms"] = median(st.firstColdMS)
		c := st.counters
		points := c["mlcserve_points_total"] + c["mlcserve_points_cached_total"]
		out.layer["serve.points_base"] = points
		out.layer["serve.points_cached_ratio"] = ratio(c["mlcserve_points_cached_total"], points)
		out.layer["serve.points_replayed_ratio"] = ratio(c["mlcserve_points_replayed_total"], points)
		lookups := c["mlcserve_arena_cache_hits_total"] + c["mlcserve_arena_cache_misses_total"]
		out.layer["serve.arena_cache_lookups"] = lookups
		out.layer["serve.arena_cache_hit_ratio"] = ratio(c["mlcserve_arena_cache_hits_total"], lookups)
		rounds := float64(st.rounds)
		out.layer["serve.refs_simulated"] = c["mlcserve_refs_simulated_total"] / rounds
		out.layer["checkpoint.bytes_per_point"] = ratio(float64(journal), final["mlcserve_points_total"])
		out.layer["store.remote_gets"] = float64(st.remoteGets) / rounds
		out.layer["store.remote_bytes"] = float64(st.remoteB) / rounds
		out.layer["store.remote_get_ms"] = median(st.remoteMS)
	}
	return nil
}

// tableCheckRounds is how many seed-chosen rounds the table check runs
// in-process again.
const tableCheckRounds = 2

// checkServiceTables runs every grid of a seed-chosen sample of rounds
// in-process under the full plan; the tables the server streamed must be
// byte-identical.
func checkServiceTables(b *bench, out *outcome, rounds []svcRound) error {
	rng := rand.New(rand.NewSource(b.seed))
	picks := rng.Perm(len(rounds))
	for _, r := range picks[:min(tableCheckRounds, len(picks))] {
		rec := rounds[r]
		arenas := map[int64]*trace.Arena{}
		arenaFor := func(seed int64) (*trace.Arena, error) {
			if arenas[seed] == nil {
				a, err := genTrace(nil, nil, seed, serviceRefs)
				if err != nil {
					return nil, err
				}
				arenas[seed] = a
			}
			return arenas[seed], nil
		}
		for key, spec := range rec.specs {
			seed := spec.Seed
			if spec.ArtifactDigest != "" {
				seed = rec.traceSeed[spec.ArtifactDigest]
			}
			arena, err := arenaFor(seed)
			if err != nil {
				return err
			}
			want, err := referenceTable(spec, arena, b.nproc)
			out.attempted++
			switch {
			case err != nil:
				out.mismatch("round %d %s: reference run: %v", r, key, err)
			case rec.tables[key] != want:
				out.mismatch("round %d %s: served table differs from the in-process full-plan table", r, key)
			}
		}
	}
	return nil
}

// referenceTable runs spec's grid in-process under the full plan and
// renders it as every sweep front end does.
func referenceTable(spec coord.JobSpec, arena *trace.Arena, par int) (string, error) {
	r := spec.RunnerFor(arena)
	r.Plan = sweep.PlanFull
	r.Parallelism = par
	results, err := r.RunContext(context.Background(), spec.Points(), sweep.Options{})
	if err != nil {
		return "", err
	}
	for _, res := range results {
		if res.Err != nil {
			return "", fmt.Errorf("point %v: %w", res.Point, res.Err)
		}
	}
	var buf bytes.Buffer
	if err := sweep.WriteTable(&buf, results, experiments.CPUCycleNS, false); err != nil {
		return "", err
	}
	return buf.String(), nil
}
