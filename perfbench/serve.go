package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// serve-mix and fleet-mix: seeded open-loop Poisson traffic over
// loopback HTTP, to one serve.Server or to a serve.Router in front of
// two serve.Server backends. Requests name no engine, so they run on
// whatever the service's default engine is.

const (
	// nominalRPS is the fixed nominal arrival rate. It keeps the nproc
	// connections of a 2-CPU machine about half busy (about half of its
	// 2.3k req/s closed-loop capacity at two clients), where queueing
	// does not yet amplify small changes in machine speed.
	nominalRPS = 1000
	// latencyLimitMS bounds the p99 latency (timed from each request's
	// due time) a ladder rate must meet to count as sustained.
	latencyLimitMS = 50
	// maxLagMS is how late the generator itself may dispatch requests
	// (p99) at the nominal rate before the run is rejected: half the
	// latency limit.
	maxLagMS = latencyLimitMS / 2
	// Every coldEvery-th request is cold: it carries unique source text.
	// Of the others, an autoShare fraction asks the planner to
	// parallelize; the rest are hot serial requests.
	coldEvery = 25
	autoShare = 0.20
	// clientTimeout is the per-request budget; a request that exceeds
	// it counts as failed.
	clientTimeout = 5 * time.Second
)

// The rate ladder: up to ladderSteps rates from ladderStart times
// nominal, each ladderRatio times the last; then bisectSteps bisections
// between the highest sustained rate (at least nominal) and the lowest
// unsustained one. Starting above nominal skips rates that are far from
// capacity, which leaves each step more time.
const (
	ladderStart = 2
	ladderRatio = 1.25
	ladderSteps = 6
	bisectSteps = 3
)

// serveItem is one kind of request: a program at a fixed input, serial
// or auto.
type serveItem struct {
	name string
	ref  reference
	body [2][]byte // encoded request, without and with "profile"
}

type serveBench struct {
	fleet    bool
	traced   bool
	seed     int64
	servers  []*serve.Server
	https    []*http.Server
	serveWG  sync.WaitGroup
	router   *serve.Router
	url      string
	client   *http.Client
	programs []program
	hot      []*serveItem // [2*i] serial, [2*i+1] auto, for programs[i]
	// coldProgram indexes the program cold requests send variants of.
	coldProgram int
	phaseNo     int
}

func servePrograms() ([]program, error) {
	progs, err := corpus()
	if err != nil {
		return nil, err
	}
	return append(progs, forceProgram(16), polyProgram(64), vecforceProgram(32, 4)), nil
}

func setupServe(seed int64, traced, fleet bool) (workload, error) {
	b := &serveBench{fleet: fleet, traced: traced, seed: seed}
	ok := false
	defer func() {
		if !ok {
			b.close()
		}
	}()
	var err error
	if b.programs, err = servePrograms(); err != nil {
		return nil, err
	}
	for i, p := range b.programs {
		if p.name == "poly" {
			b.coldProgram = i
		}
		ref, err := oracle(p)
		if err != nil {
			return nil, err
		}
		for _, auto := range []bool{false, true} {
			it := &serveItem{name: p.name, ref: ref}
			req := request(p, p.src, auto)
			if it.body[0], err = json.Marshal(req); err != nil {
				return nil, err
			}
			req.Profile = true
			if it.body[1], err = json.Marshal(req); err != nil {
				return nil, err
			}
			if auto {
				it.name += "/auto"
			}
			b.hot = append(b.hot, it)
		}
	}

	nBackends := 1
	if fleet {
		nBackends = 2
	}
	var urls []string
	for i := 0; i < nBackends; i++ {
		s := serve.New(serve.Config{})
		b.servers = append(b.servers, s)
		u, err := b.listen(s.Handler())
		if err != nil {
			return nil, err
		}
		urls = append(urls, u)
	}
	b.url = urls[0]
	if fleet {
		b.router, err = serve.NewRouter(serve.RouterConfig{Backends: urls, TraceBuffer: 1 << 16})
		if err != nil {
			return nil, err
		}
		if b.url, err = b.listen(b.router.Handler()); err != nil {
			return nil, err
		}
	}
	b.client = &http.Client{Timeout: clientTimeout, Transport: &http.Transport{
		MaxConnsPerHost: pes, MaxIdleConnsPerHost: pes, MaxIdleConns: pes, DisableCompression: true}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := serve.WaitReady(ctx, b.client, b.url); err != nil {
		return nil, err
	}
	// Warm-up: every hot request once cold, then once more, which must
	// hit the cache and agree with the reference.
	for _, it := range b.hot {
		for pass := 0; pass < 2; pass++ {
			resp, err := b.post(it.body[0])
			if err == nil {
				err = it.check(resp)
			}
			if err == nil && pass == 1 && !resp.Cached {
				err = fmt.Errorf("%s: warm request missed the cache", it.name)
			}
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	ok = true
	return b, nil
}

// request builds the POST /run body for p with the given source text.
func request(p program, src string, auto bool) serve.Request {
	r := serve.Request{Source: src, Fn: p.fn, Seed: p.seed}
	for _, a := range p.args {
		r.Args = append(r.Args, json.Number(a.String()))
	}
	if auto {
		r.Auto, r.PEs = true, pes
	}
	return r
}

func (b *serveBench) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	b.https = append(b.https, srv)
	b.serveWG.Add(1)
	go func() {
		defer b.serveWG.Done()
		srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(b.https) - 1; i >= 0; i-- {
		b.https[i].Shutdown(ctx) // best effort: a hung connection is cut by the deadline
	}
	b.serveWG.Wait()
	if b.router != nil {
		b.router.Close()
	}
	for _, s := range b.servers {
		s.Close()
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
}

// check compares a reply with the item's reference.
func (it *serveItem) check(r serve.Response) error {
	if !r.OK {
		return fmt.Errorf("%s: program failed: %s", it.name, r.Error)
	}
	return it.ref.check(it.name, r.Result, r.Output)
}

// post sends one /run request and decodes the reply.
func (b *serveBench) post(body []byte) (serve.Response, error) {
	resp, err := b.client.Post(b.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Response{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.Response{}, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
		return serve.Response{}, fmt.Errorf("refused: status %d", resp.StatusCode)
	}
	if resp.StatusCode != http.StatusOK {
		return serve.Response{}, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var r serve.Response
	if err := json.Unmarshal(raw, &r); err != nil {
		return serve.Response{}, err
	}
	return r, nil
}

// cacheCounters is the part of /stats the benchmark diffs.
type cacheCounters struct {
	cache             serve.CacheStats
	rejected, retries int64
}

func (b *serveBench) stats() (cacheCounters, error) {
	resp, err := b.client.Get(b.url + "/stats")
	if err != nil {
		return cacheCounters{}, err
	}
	defer resp.Body.Close()
	if b.fleet {
		var s serve.RouterStats
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			return cacheCounters{}, err
		}
		c := cacheCounters{cache: s.Cache, retries: s.Retries}
		for _, srv := range b.servers {
			c.rejected += srv.Stats().Rejected
		}
		return c, nil
	}
	var s serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return cacheCounters{}, err
	}
	return cacheCounters{cache: s.Cache, rejected: s.Rejected}, nil
}

// job is one scheduled request.
type job struct {
	due    time.Duration // since the phase began
	item   *serveItem
	body   []byte
	cold   bool
	traced bool
}

// sample is what happened to one job.
type sample struct {
	lag, sent, done time.Duration // since the phase began
	err             error         // refusals (503/429) and timeouts included
	wrong           bool          // answered, but not with the reference result
	cached          bool
	trace           *obs.TraceView
}

// phaseResult summarizes one fixed-rate phase.
type phaseResult struct {
	rate       float64
	jobs       []job
	samples    []sample
	start      time.Time
	lat        []float64 // ms from due time to completion, failures included as +Inf
	lagP99     float64
	failed     int64
	drainMS    float64 // completion of the last request after the last due time
	coldMisses int64
	misses     int64 // responses with cached=false
}

// schedule draws a phase's arrivals: Poisson at rate for dur, each a
// hot serial, hot auto or cold request.
func (b *serveBench) schedule(rng *rand.Rand, rate float64, dur time.Duration) ([]job, error) {
	b.phaseNo++
	var jobs []job
	t := 0.0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return jobs, nil
		}
		j := job{due: time.Duration(t * float64(time.Second)), traced: b.traced && i%2 == 1}
		k := rng.Intn(len(b.programs))
		switch {
		case i%coldEvery == 0:
			// Unique text: a new cache key, so the request must miss.
			// Cold requests all run the poly program, alternately
			// serial and auto, so the tail they form is one cluster.
			k, auto := b.coldProgram, (i/coldEvery)%2 == 1
			req := request(b.programs[k], fmt.Sprintf("%s\n// cold %d-%d-%d\n", b.programs[k].src, b.seed, b.phaseNo, i), auto)
			req.Profile = j.traced
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			j.item, j.body, j.cold = b.hot[2*k], body, true
			if auto {
				j.item = b.hot[2*k+1]
			}
		case rng.Float64() < autoShare:
			j.item = b.hot[2*k+1]
		default:
			j.item = b.hot[2*k]
		}
		if !j.cold {
			j.body = j.item.body[0]
			if j.traced {
				j.body = j.item.body[1]
			}
		}
		jobs = append(jobs, j)
	}
}

// runPhase plays a schedule open-loop: a dispatcher releases each job at
// its due time, and at most pes senders, over at most pes connections,
// send them. Latency runs from the due time, so queueing behind a slow
// response counts.
func (b *serveBench) runPhase(jobs []job, rate float64) *phaseResult {
	pr := &phaseResult{rate: rate, jobs: jobs, samples: make([]sample, len(jobs))}
	queue := make(chan int, len(jobs)) // sized to the number of sends
	var wg sync.WaitGroup
	pr.start = time.Now()
	for s := 0; s < pes; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				sm := &pr.samples[i]
				sm.sent = time.Since(pr.start)
				resp, err := b.post(jobs[i].body)
				sm.done = time.Since(pr.start)
				if err == nil {
					err = jobs[i].item.check(resp)
					sm.wrong = err != nil
				}
				sm.err, sm.cached, sm.trace = err, resp.Cached, resp.Trace
			}
		}()
	}
	for i, j := range jobs {
		if d := j.due - time.Since(pr.start); d > 0 {
			time.Sleep(d)
		}
		pr.samples[i].lag = time.Since(pr.start) - j.due
		queue <- i
	}
	close(queue)
	wg.Wait()

	var lags []float64
	var last time.Duration
	for i, sm := range pr.samples {
		lags = append(lags, ms(sm.lag))
		if sm.done > last {
			last = sm.done
		}
		if sm.err != nil {
			pr.failed++
			pr.lat = append(pr.lat, math.Inf(1))
			continue
		}
		pr.lat = append(pr.lat, ms(sm.done-jobs[i].due))
		if !sm.cached {
			pr.misses++
			if jobs[i].cold {
				pr.coldMisses++
			}
		}
	}
	pr.lagP99 = quantile(lags, 0.99)
	if len(jobs) > 0 {
		pr.drainMS = ms(last - jobs[len(jobs)-1].due)
	}
	return pr
}

// windows is how many equal slices of the nominal phase, by due time,
// the latency quantiles are taken over; the reported figure is their
// median, so one burst of interference moves at most one slice.
const windows = 8

func (pr *phaseResult) windowed(q float64) float64 {
	if len(pr.jobs) == 0 {
		return 0
	}
	span := pr.jobs[len(pr.jobs)-1].due + 1
	slices := make([][]float64, windows)
	for i, j := range pr.jobs {
		w := int(int64(j.due) * windows / int64(span))
		slices[w] = append(slices[w], pr.lat[i])
	}
	var qs []float64
	for _, sl := range slices {
		qs = append(qs, quantile(sl, q))
	}
	return median(qs)
}

// sustained reports whether a phase met the latency limit without a
// growing backlog: p99 within the limit and the queue drained within
// the limit after the last arrival.
func (pr *phaseResult) sustained() bool {
	return pr.failed == 0 && quantile(pr.lat, 0.99) <= latencyLimitMS && pr.drainMS <= latencyLimitMS
}

func (b *serveBench) measure(rc runCtx) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	rng := rand.New(rand.NewSource(rc.seed))
	before, err := b.stats()
	if err != nil {
		return nil, err
	}
	nominalDur := rc.seconds / 2
	if rc.led != nil {
		nominalDur = rc.seconds
	}
	jobs, err := b.schedule(rng, nominalRPS, nominalDur)
	if err != nil {
		return nil, err
	}
	phases := []*phaseResult{b.runPhase(jobs, nominalRPS)}
	nominal := phases[0]
	if nominal.lagP99 > maxLagMS {
		o.breaks("load generator fell behind: dispatch lag p99 %.2f ms > %d ms at the nominal rate", nominal.lagP99, maxLagMS)
	}
	// The ladder: rates growing geometrically until one is not
	// sustained, then bisection between the last sustained rate and the
	// first unsustained one.
	maxRate := 0.0
	if rc.led == nil {
		rung := (rc.seconds - nominalDur) / (ladderSteps + bisectSteps)
		try := func(rate float64) (bool, error) {
			jobs, err := b.schedule(rng, rate, rung)
			if err != nil {
				return false, err
			}
			pr := b.runPhase(jobs, rate)
			phases = append(phases, pr)
			return pr.sustained(), nil
		}
		lo, hi := float64(nominalRPS), 0.0
		for k := 0; k < ladderSteps; k++ {
			r := ladderStart * nominalRPS * math.Pow(ladderRatio, float64(k))
			ok, err := try(r)
			if err != nil {
				return nil, err
			}
			if !ok {
				hi = r
				break
			}
			lo = r
		}
		for k := 0; hi > 0 && k < bisectSteps; k++ {
			mid := math.Sqrt(lo * hi)
			ok, err := try(mid)
			if err != nil {
				return nil, err
			}
			if ok {
				lo = mid
			} else {
				hi = mid
			}
		}
		maxRate = lo
		if !nominal.sustained() {
			// Below the ladder: scale the nominal rate by how far its p99
			// overshot the limit, so the figure stays a rate.
			maxRate = nominalRPS * latencyLimitMS / quantile(nominal.lat, 0.99)
		}
	}
	after, err := b.stats()
	if err != nil {
		return nil, err
	}

	var misses, coldSent, coldMissed int64
	for _, pr := range phases {
		o.attempted += int64(len(pr.jobs))
		for i, sm := range pr.samples {
			if sm.wrong {
				o.wrongOutput("%v", sm.err)
			} else if sm.err != nil {
				o.fail("%v", sm.err)
			} else if pr.jobs[i].cold {
				coldSent++
			}
		}
		misses += pr.misses
		coldMissed += pr.coldMisses
	}
	// Cold-is-cold: every answered cold request missed, and /stats saw
	// exactly the misses the responses reported.
	if coldMissed != coldSent {
		o.breaks("%d of %d cold requests hit the cache", coldSent-coldMissed, coldSent)
	}
	if d := after.cache.Misses - before.cache.Misses; d != misses {
		o.breaks("/stats misses rose by %d, responses reported %d misses", d, misses)
	}

	o.opP50, o.opTail = nominal.windowed(0.5), nominal.windowed(0.99)
	o.maxRate = maxRate
	prefix := "serve"
	o.named = []named{
		{prefix + "_ms_p50", "ms", o.opP50},
		{prefix + "_ms_p99", "ms", o.opTail},
		{prefix + "_max_rps", "req/s", maxRate},
		{"fail_frac", "ratio", float64(o.failed) / float64(o.attempted)},
		{"lag_ms_p99", "ms", nominal.lagP99},
		{"requests", "count", float64(o.attempted)},
	}
	for _, pr := range phases[1:] {
		o.named = append(o.named, named{fmt.Sprintf("rate_%.0f_p99", pr.rate), "ms", quantile(pr.lat, 0.99)})
	}
	if rc.led != nil {
		if err := b.layers(o, rc.led, nominal, before, after); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// layers turns the traced half of the nominal phase into per-layer
// metrics and ledger spans. The server's own span tree (returned for
// "profile": true) is placed by its absolute start time.
func (b *serveBench) layers(o *outcome, led *ledger, pr *phaseResult, before, after cacheCounters) error {
	var routed map[string]obs.TraceView
	if b.fleet {
		var err error
		if routed, err = b.routerTraces(); err != nil {
			return err
		}
	}
	spanMS := map[string][]float64{}
	var build, httpMS, hopMS, tracedLat, untracedLat []float64
	t0 := pr.start.Sub(led.t0)
	for i, sm := range pr.samples {
		j := pr.jobs[i]
		if sm.err != nil {
			continue
		}
		lat := ms(sm.done - j.due)
		if !j.traced {
			untracedLat = append(untracedLat, lat)
			continue
		}
		tracedLat = append(tracedLat, lat)
		op := int64(i + 1)
		at := func(d time.Duration) float64 { return ms(t0 + d) }
		root := led.addMS(op, 0, "serve.request", at(j.due), at(sm.done), false)
		led.addMS(op, root, "loadgen.wait", at(j.due), at(sm.sent), false)
		hp := led.addMS(op, root, "http.client", at(sm.sent), at(sm.done), false)
		client := ms(sm.done - sm.sent)
		if sm.trace == nil {
			return fmt.Errorf("%s: profiled request returned no trace", j.item.name)
		}
		tv := sm.trace
		parent := hp
		if b.fleet {
			if rt, ok := routed[tv.ID]; ok {
				rs := float64(rt.StartUnixUS-led.t0.UnixMicro()) / 1000
				parent = led.addMS(op, hp, "router.proxy", rs, rs+float64(rt.WallUS)/1000, false)
				httpMS = append(httpMS, client-float64(rt.WallUS)/1000)
			}
			hopMS = append(hopMS, client-float64(tv.WallUS)/1000)
		} else {
			httpMS = append(httpMS, client-float64(tv.WallUS)/1000)
		}
		base := float64(tv.StartUnixUS-led.t0.UnixMicro()) / 1000
		srv := led.addMS(op, parent, "serve.Run", base, base+float64(tv.WallUS)/1000, false)
		var addSpans func(parent int, spans []obs.SpanView)
		addSpans = func(parent int, spans []obs.SpanView) {
			for _, s := range spans {
				st := base + float64(s.StartUS)/1000
				id := led.addMS(op, parent, "serve."+s.Name, st, st+float64(s.DurUS)/1000, false)
				spanMS[s.Name] = append(spanMS[s.Name], float64(s.DurUS)/1000)
				addSpans(id, s.Children)
			}
		}
		addSpans(srv, tv.Spans)
		if j.cold {
			var sum float64
			for _, s := range tv.Spans {
				if s.Name == "cache" {
					for _, c := range s.Children {
						sum += float64(c.DurUS) / 1000
					}
				}
			}
			build = append(build, sum)
		}
	}
	l := o.layer
	l["serve.admission_ms_p50"] = median(spanMS["admission"])
	l["serve.cache_ms_p50"] = median(spanMS["cache"])
	l["serve.build_ms_p50"] = median(build)
	l["serve.execute_ms_p50"] = median(spanMS["execute"])
	l["serve.execute_ms_p99"] = quantile(spanMS["execute"], 0.99)
	l["serve.merge_ms_p50"] = median(spanMS["merge"])
	l["serve.http_ms_p50"] = median(httpMS)
	d := after.cache
	hits, misses := d.Hits-before.cache.Hits, d.Misses-before.cache.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	l["serve.hit_ratio"] = ratio
	l["serve.evictions"] = float64(d.Evictions - before.cache.Evictions)
	l["serve.compiles"] = float64(d.Compiles - before.cache.Compiles)
	l["serve.rejected"] = float64(after.rejected - before.rejected)
	if b.fleet {
		var cold int64
		for _, j := range pr.jobs {
			if j.cold {
				cold++
			}
		}
		l["router.hop_ms_p50"] = median(hopMS)
		l["router.hit_ratio"] = ratio
		l["router.dup_compiles"] = float64(d.Compiles - before.cache.Compiles - cold)
		l["router.retries"] = float64(after.retries - before.retries)
	}
	l["loadgen.lag_ms_p99"] = pr.lagP99
	if u := median(untracedLat); u > 0 {
		l["trace.overhead_frac"] = (median(tracedLat) - u) / u
	}
	return nil
}

// routerTraces reads the router's trace ring: the router's own view of
// every routed, traced request, by trace id.
func (b *serveBench) routerTraces() (map[string]obs.TraceView, error) {
	resp, err := b.client.Get(b.url + "/debug/traces")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var views []obs.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		return nil, fmt.Errorf("router traces: %w", err)
	}
	out := make(map[string]obs.TraceView, len(views))
	for _, v := range views {
		out[v.ID] = v
	}
	return out, nil
}
