// Package parexec executes transformed PSL programs with real
// goroutine parallelism: it is the hardware counterpart of the
// simulated Sequent in package sequent.
//
// The engine runs a program on a root interpreter whose parallel
// forall loops — the regions transform.StripMine emits — are shared
// out over PEs (default GOMAXPROCS). The interpreting goroutine is
// PE 0: it runs PE 0's share itself, on a dedicated fork, and a pool
// of PEs−1 worker goroutines runs the rest, so a one-PE run has no
// workers and no handoff at all. Each PE executes iterations on an
// interpreter forked from the root: the program is shared and
// immutable, step/allocation counters and the deterministic RNG are
// shared atomics, and heap writes are partitioned by construction —
// the dependence test only licenses loops whose iterations write
// disjoint nodes (and at field granularity, disjoint fields), so no
// locking of the heap is needed.
//
// Handoff and join spin, then park: the root posts a share by bumping
// a per-worker counter and waits at a per-run barrier counter, and
// each side spins for a bounded number of probes (spinProbes, each
// yielding the P) before it parks on a channel. Back-to-back short
// foralls therefore hand off without waking a parked goroutine, and an
// idle pool costs no CPU. Everything a forall needs — the assignment,
// the per-iteration error and output records, the per-PE output
// buffers, the profiling slots — is sized on the run's first parallel
// region and reused, so a forall allocates nothing in the pool.
//
// Which PE runs which iteration is decided by a pluggable Policy
// (§4.3.3 / experiment X2): StaticBlock, StaticCyclic (the paper's
// "simple static scheduling"), or Dynamic self-scheduling with a
// configurable chunk size. The policy affects only load balance and
// scheduling overhead, never the result — see Policy.
//
// Every forall is a barrier, mirroring the paper's FOR1/FOR2 structure
// (§4.3.3): the pool finishes all PE iteration procedures (FOR2 bodies)
// before the serial outer loop advances the induction pointer (FOR1).
// print() output from iterations is captured in one buffer per PE,
// each iteration recording where its bytes start and end, and flushed
// in iteration order at the barrier, so a parallel run's output
// stream — and its result, since the heap writes are disjoint — is
// bit-identical to the serial run's under every scheduling policy.
//
// One caveat: the rand() builtin draws from a single shared stream in
// completion order, so a forall body that calls rand() receives
// scheduling-dependent draws and loses the bit-identical guarantee.
// None of the paper's parallel loops use rand; programs that want
// determinism must keep rand() out of parallel regions.
package parexec

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/obs"
)

// Options configures an Engine.
type Options struct {
	// Interp selects the interpreter engine the pool runs on
	// (default interp.EngineCompiled; interp.EngineBytecode is the
	// flat register-bank VM; interp.EngineWalk is the tree-walking
	// oracle). Results are bit-identical across all three — the
	// engines differ only in speed.
	Interp interp.Engine
	// Compiled, if non-nil, supplies the program's pinned closure code
	// (interp.CompileProgram) instead of the per-program code cache —
	// the serving layer's guarantee that cached programs never
	// recompile. Must have been built from the same program the Engine
	// was created with.
	Compiled *interp.CompiledProgram
	// PEs is the number of PEs (0 = GOMAXPROCS): the interpreting
	// goroutine plus PEs-1 worker goroutines.
	PEs int
	// Sched maps forall iterations to PEs (nil = Dynamic(1),
	// self-scheduling one iteration at a time — the behavior of the
	// original task-queue pool).
	Sched Policy
	// Seed for the deterministic rand() builtin.
	Seed uint64
	// Output receives the merged print() stream (nil discards).
	Output io.Writer
	// MaxSteps bounds execution (0 = interpreter default).
	MaxSteps int64
	// Ctx, if non-nil, cancels the run (deadline or explicit cancel);
	// root and workers all poll it. See interp.Config.Ctx.
	Ctx context.Context
	// MaxAllocs bounds `new` allocations across the run (0 = unlimited).
	MaxAllocs int64
	// MaxOutputBytes bounds total print() bytes (0 = unlimited). The
	// budget is charged before an iteration prints into its PE's
	// buffer, so it also caps memory held by the deterministic output
	// merge.
	MaxOutputBytes int64
	// Profiler, if non-nil, receives per-barrier parallel-efficiency
	// measurements (per-PE busy time, barrier wait, task counts) keyed
	// by the forall's source line; PE 0 is the interpreting goroutine.
	// Nil disables measurement entirely: no PE takes clock readings.
	Profiler *obs.ForallProfiler
}

// Engine runs programs with a goroutine-backed worker pool. An Engine
// is cheap; each Run call builds its own pool (on the run's first
// parallel region) and tears it down before returning, so
// one Engine may be reused for many runs — concurrently too, provided
// Options.Output is nil (concurrent runs would otherwise interleave
// unsynchronized writes to the shared writer).
type Engine struct {
	prog *lang.Program
	opt  Options
}

// New creates an engine for a checked, normalized program.
func New(prog *lang.Program, opt Options) *Engine {
	return &Engine{prog: prog, opt: opt}
}

// PEs reports the number of PEs a Run will use.
func (e *Engine) PEs() int {
	if e.opt.PEs > 0 {
		return e.opt.PEs
	}
	return runtime.GOMAXPROCS(0)
}

// Sched reports the scheduling policy a Run will use.
func (e *Engine) Sched() Policy {
	if e.opt.Sched != nil {
		return e.opt.Sched
	}
	return Dynamic(1)
}

// Run executes fn on the pool and returns its result, with Stats whose
// Barriers field counts the parallel regions joined.
func (e *Engine) Run(fn string, args ...interp.Value) (interp.Value, interp.Stats, error) {
	out := e.opt.Output
	if out == nil {
		out = io.Discard
	}
	rs := &runState{out: out, pes: e.PEs(), sched: e.Sched(), prof: e.opt.Profiler}
	icfg := interp.Config{
		Engine:         e.opt.Interp,
		Mode:           interp.Real,
		Seed:           e.opt.Seed,
		Output:         out,
		MaxSteps:       e.opt.MaxSteps,
		Ctx:            e.opt.Ctx,
		MaxAllocs:      e.opt.MaxAllocs,
		MaxOutputBytes: e.opt.MaxOutputBytes,
		Forall:         rs.forall,
		Strip:          rs.strip,
	}
	if e.opt.Compiled != nil {
		rs.root = interp.NewCompiled(e.opt.Compiled, icfg)
	} else {
		rs.root = interp.New(e.prog, icfg)
	}
	defer rs.stop()
	v, err := rs.root.Call(fn, args...)

	st := rs.root.Stats()
	st.Barriers = rs.barriers
	return v, st, err
}

// Run is the one-shot convenience: execute fn on a fresh engine.
func Run(prog *lang.Program, opt Options, fn string, args ...interp.Value) (interp.Value, interp.Stats, error) {
	return New(prog, opt).Run(fn, args...)
}

// ---------------------------------------------------------------------------
// Pool internals

// spinProbes is how many times a waiting goroutine — a worker waiting
// for its next share, or the root waiting at the barrier — checks its
// condition before it parks. Every probe yields the P
// (runtime.Gosched), so a spinning PE never holds a CPU that another
// goroutine (another request on a loaded server) could use. A probe
// costs about 60 ns when nothing else is runnable, so 64 probes spin
// for about 4 µs: enough to cover the serial gap between back-to-back
// short foralls (the FOR1 pointer advance and the output merge), so
// consecutive barriers hand off without a park/wake pair, while a pool
// idling through a long serial phase parks almost at once. Measured on
// a 2-CPU AMD EPYC box with exec-hot (vecforce runs 1280 barriers of
// about 8 µs each): op_ms_p50 6.4–6.6 ms at 0 probes (park at once),
// 5.9–6.1 at 8, and a flat 5.65–5.8 from 32 to 256.
const spinProbes = 64

// gate is a monotonic counter one goroutine waits on: await(want)
// returns once n >= want, spinning for spinProbes yielding probes and
// then parking on wake. add advances n and wakes a parked waiter. The
// sleeping flag makes the park race-free: the waiter publishes it
// before its last check of n, the adder publishes n before it claims
// the flag, so at least one of them sees the other, and exactly one
// token is sent per claimed flag (wake's buffer of one never blocks).
type gate struct {
	n        atomic.Int64
	want     atomic.Int64
	sleeping atomic.Bool
	wake     chan struct{}
}

func (g *gate) add(d int64) {
	if g.n.Add(d) >= g.want.Load() && g.sleeping.Swap(false) {
		g.wake <- struct{}{}
	}
}

func (g *gate) await(want int64) {
	for i := 0; i < spinProbes; i++ {
		if g.n.Load() >= want {
			return
		}
		runtime.Gosched()
	}
	g.want.Store(want)
	for {
		g.sleeping.Store(true)
		if g.n.Load() >= want {
			if !g.sleeping.CompareAndSwap(true, false) {
				<-g.wake // an adder claimed the flag; take its token
			}
			return
		}
		<-g.wake
	}
}

// worker is the goroutine running PE pe's shares; the root posts a
// share by advancing the worker's gate.
type worker struct {
	gate
	pe int
}

// job is the work the root posts to every active PE: one forall's
// iteration stream, or one vectorized strip's compute phase. The root
// writes it only while every worker is idle (before posting, after the
// barrier), so workers read it without locks.
type job struct {
	quit bool

	// A forall: PE pe drains asn.Next(pe), running run on its fork and
	// recording iteration k's output segment and error in segs[k-from].
	asn  Assignment
	from int64
	run  func(w *interp.Interp, k int64) error

	// A strip (strip == true): PE pe computes lanes
	// [pe*chunk, min((pe+1)*chunk, lanes)) into peErr[pe].
	strip        bool
	ks           interp.KernelStrip
	lanes, chunk int

	// start anchors the profiler's per-PE done offsets.
	start time.Time
}

// seg is one iteration's record: its output is bytes [lo, hi) of PE
// pe's buffer, and err is what it returned. Each slot is written by
// the one PE that ran the iteration.
type seg struct {
	pe     int
	lo, hi int
	err    error
}

// runState is the per-Run pool the root interpreter calls for every
// parallel forall and vectorized strip. The root goroutine is PE 0:
// it posts the job, runs PE 0's share on its own fork, and waits at
// the barrier for the pes-1 workers. Everything below is sized once,
// on the run's first parallel region, and reused by every later one —
// a forall allocates nothing in the pool.
type runState struct {
	root     *interp.Interp
	out      io.Writer
	pes      int
	sched    Policy
	prof     *obs.ForallProfiler
	barriers int64

	job     job
	asn     spanAssign       // refilled by sched.fill for every forall
	forks   []*interp.Interp // forks[pe] runs PE pe's iterations
	bufs    []bytes.Buffer   // bufs[pe] holds PE pe's output for one forall
	segs    []seg            // one per iteration of the current forall
	peErr   []error          // per PE: the strip compute's error
	workers []*worker        // workers[pe-1] runs PE pe
	arrived gate             // counts worker shares finished
	posted  int64            // worker shares posted so far
	exited  sync.WaitGroup

	// Profiling slots (nil when no profiler is installed): each index
	// is written by its own PE only.
	busy, done, ntasks []int64
}

// ready sizes the pool on the first parallel region of the run.
func (rs *runState) ready() {
	if rs.forks != nil {
		return
	}
	rs.forks = make([]*interp.Interp, rs.pes)
	rs.bufs = make([]bytes.Buffer, rs.pes)
	rs.peErr = make([]error, rs.pes)
	for pe := range rs.forks {
		rs.forks[pe] = rs.root.Fork(&rs.bufs[pe])
	}
	if rs.prof != nil {
		rs.busy = make([]int64, rs.pes)
		rs.done = make([]int64, rs.pes)
		rs.ntasks = make([]int64, rs.pes)
	}
	rs.arrived.wake = make(chan struct{}, 1)
	rs.workers = make([]*worker, rs.pes-1)
	rs.exited.Add(len(rs.workers))
	for i := range rs.workers {
		wk := &worker{pe: i + 1}
		wk.wake = make(chan struct{}, 1)
		rs.workers[i] = wk
		go rs.work(wk)
	}
}

// work is a worker goroutine's loop: wait for a share, run it, arrive.
func (rs *runState) work(wk *worker) {
	defer rs.exited.Done()
	for seen := int64(1); ; seen++ {
		wk.await(seen)
		if rs.job.quit {
			return
		}
		rs.share(wk.pe)
		rs.arrived.add(1)
	}
}

// dispatch runs the posted job on PEs 0..active-1 — the workers for
// PEs 1 and up, the root itself for PE 0 — and returns once all have
// finished: the region's barrier.
func (rs *runState) dispatch(active int) {
	rs.posted += int64(active - 1)
	for _, wk := range rs.workers[:active-1] {
		wk.add(1)
	}
	rs.share(0)
	rs.arrived.await(rs.posted)
}

// stop ends the workers once the run is over. It first waits out any
// share still in flight, so a run unwinding from the middle of a
// region never rewrites the job under a busy worker.
func (rs *runState) stop() {
	if rs.workers == nil {
		return
	}
	rs.arrived.await(rs.posted)
	rs.job = job{quit: true}
	for _, wk := range rs.workers {
		wk.add(1)
	}
	rs.exited.Wait()
}

// share runs PE pe's part of the current job.
func (rs *runState) share(pe int) {
	j := &rs.job
	if j.strip {
		lo := pe * j.chunk
		hi := lo + j.chunk
		if hi > j.lanes {
			hi = j.lanes
		}
		if rs.busy != nil {
			t0 := time.Now()
			rs.peErr[pe] = j.ks.Compute(lo, hi)
			rs.busy[pe] += int64(time.Since(t0))
			rs.ntasks[pe]++
		} else {
			rs.peErr[pe] = j.ks.Compute(lo, hi)
		}
		return
	}
	w, buf := rs.forks[pe], &rs.bufs[pe]
	for {
		k, ok := j.asn.Next(pe)
		if !ok {
			break
		}
		sg := &rs.segs[k-j.from]
		sg.pe, sg.lo = pe, buf.Len()
		if rs.busy != nil {
			t0 := time.Now()
			sg.err = j.run(w, k)
			rs.busy[pe] += int64(time.Since(t0))
			rs.ntasks[pe]++
		} else {
			sg.err = j.run(w, k)
		}
		sg.hi = buf.Len()
	}
	if rs.done != nil {
		// Offset from dispatch at which this PE's stream drained: the
		// gap to the barrier is its wait time.
		rs.done[pe] = int64(time.Since(j.start))
	}
}

// resetProfile zeroes the per-PE profiling slots for the next region.
func (rs *runState) resetProfile() {
	clear(rs.busy)
	clear(rs.done)
	clear(rs.ntasks)
}

// strip runs one vectorized strip (interp.StripScheduler): gather
// serially on the interpreting goroutine, compute split across the
// pool in contiguous lane chunks (slab granularity — each PE sweeps
// one sub-range of every slab, not one iteration at a time), scatter
// serially after the barrier. Any phase error aborts the strip before
// the heap is written and before the barrier or profiler see it: the
// interpreter then falls back to the scalar path, whose barrier
// rs.forall counts instead — so a strip never double-counts.
func (rs *runState) strip(pos lang.Pos, lanes int, s interp.KernelStrip) error {
	var gatherNS, scatterNS int64
	var start time.Time
	if rs.prof != nil {
		start = time.Now()
	}
	if rs.prof != nil {
		t0 := time.Now()
		if err := s.Gather(); err != nil {
			return err
		}
		gatherNS = int64(time.Since(t0))
	} else if err := s.Gather(); err != nil {
		return err
	}

	rs.ready()
	active := rs.pes
	if active > lanes {
		active = lanes
	}
	rs.job = job{strip: true, ks: s, lanes: lanes, chunk: (lanes + active - 1) / active}
	rs.resetProfile()
	rs.dispatch(active)
	for _, err := range rs.peErr[:active] {
		if err != nil {
			return err
		}
	}
	if rs.prof != nil {
		t0 := time.Now()
		if err := s.Scatter(); err != nil {
			return err
		}
		scatterNS = int64(time.Since(t0))
	} else if err := s.Scatter(); err != nil {
		return err
	}
	rs.barriers++
	if rs.prof != nil {
		rs.prof.RecordKernel(pos.Line, int64(time.Since(start)), gatherNS, scatterNS, rs.busy, rs.ntasks)
	}
	return nil
}

// forall asks the scheduling policy for an iteration→PE assignment,
// runs every active PE's stream, and returns after the barrier.
// Iteration output is then flushed in index order and the first
// failing iteration (in index order, matching where a serial run would
// have stopped) decides the error.
func (rs *runState) forall(pos lang.Pos, from, to int64, run func(w *interp.Interp, k int64) error) error {
	rs.ready()
	n := int(to - from + 1)
	active := rs.pes
	if active > n {
		active = n
	}
	if cap(rs.segs) < n {
		rs.segs = make([]seg, n)
	}
	rs.segs = rs.segs[:n]
	for pe := range rs.bufs[:active] {
		rs.bufs[pe].Reset()
	}
	rs.sched.fill(&rs.asn, from, to, active)
	rs.job = job{asn: &rs.asn, from: from, run: run}
	rs.resetProfile()
	if rs.prof != nil {
		rs.job.start = time.Now()
	}
	rs.dispatch(active)
	rs.barriers++
	if rs.prof != nil {
		rs.prof.Record(pos.Line, int64(time.Since(rs.job.start)), rs.busy, rs.done, rs.ntasks)
	}
	return rs.merge()
}

// merge writes the forall's output in iteration order, stopping at the
// first failing iteration (a serial run would have stopped there, so
// only earlier iterations' output is flushed), and returns its error.
func (rs *runState) merge() error {
	failed := len(rs.segs)
	for i := range rs.segs {
		if rs.segs[i].err != nil {
			failed = i
			break
		}
	}
	var writeErr error
	for _, sg := range rs.segs[:failed] {
		if sg.hi == sg.lo {
			continue
		}
		if _, err := rs.out.Write(rs.bufs[sg.pe].Bytes()[sg.lo:sg.hi]); err != nil {
			writeErr = fmt.Errorf("parexec: merging output: %w", err)
			break
		}
	}
	if failed < len(rs.segs) {
		return rs.segs[failed].err
	}
	return writeErr
}
