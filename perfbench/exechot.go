package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// exec-hot: programs are parsed, planned and compiled in set-up; the
// timed loop only executes them, each serially and auto-parallel at
// PEs = nproc, in a seeded order. Nothing compiles in the timed loop.

type execProg struct {
	label   string
	p       program
	ref     reference
	serial  *interp.CompiledProgram // the unplanned program
	planned *lang.Program
	par     *interp.CompiledProgram // the planned program
	steps   [2]int64                // per mode, from set-up's warm-up runs
}

const (
	modeSerial = iota
	modePar
)

var modeNames = [2]string{"serial", "par"}

type execHot struct{ progs []*execProg }

func setupExecHot(seed int64, traced bool) (workload, error) {
	w := &execHot{}
	for _, p := range []program{forceProgram(64), vecforceProgram(256, 40), polyProgram(512)} {
		e := &execProg{label: p.name, p: p}
		var err error
		if e.ref, err = oracle(p); err != nil {
			return nil, err
		}
		prog, err := lang.Parse(p.src)
		if err != nil {
			return nil, err
		}
		pl, err := transform.AutoParallelize(prog, transform.DefaultWidth(pes))
		if err != nil {
			return nil, fmt.Errorf("%s: plan: %w", p.name, err)
		}
		if pl.Parallelized == 0 {
			return nil, fmt.Errorf("%s: the planner approved no loop", p.name)
		}
		e.planned = pl.Program
		e.serial = interp.CompileProgram(prog)
		e.par = interp.CompileProgram(pl.Program)
		for _, cp := range []*interp.CompiledProgram{e.serial, e.par} {
			if cp.Err() != nil {
				return nil, fmt.Errorf("%s: codegen: %w", p.name, cp.Err())
			}
		}
		for mode := range e.steps {
			v, out, st, err := e.run(mode, nil)
			if err == nil {
				err = e.ref.check(p.name, v.String(), out)
			}
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", modeNames[mode], err)
			}
			e.steps[mode] = st.Steps
		}
		w.progs = append(w.progs, e)
	}
	return w, nil
}

func (w *execHot) close() {}

// run executes the program once the way a user who names no engine
// would: serially, or on the parexec pool at PEs = nproc.
func (e *execProg) run(mode int, prof *obs.ForallProfiler) (interp.Value, string, interp.Stats, error) {
	var out bytes.Buffer
	var v interp.Value
	var st interp.Stats
	var err error
	if mode == modeSerial {
		v, st, err = interp.RunCompiled(e.serial, interp.Config{Seed: e.p.seed, Output: &out}, e.p.fn, e.p.args...)
	} else {
		v, st, err = parexec.Run(e.planned, parexec.Options{Compiled: e.par, PEs: pes, Seed: e.p.seed,
			Output: &out, Profiler: prof}, e.p.fn, e.p.args...)
	}
	return v, out.String(), st, err
}

// execTrace accumulates one program's traced measurements.
type execTrace struct {
	lat                   [2][]float64
	allocs                []float64
	forallWall, parWall   float64 // ms, summed over traced parallel runs
	busy, wait, imb       []float64
	barriers, tasks       int64
	parRuns               int64
	engines               map[string][]float64
	pes1, gather, scatter []float64
}

func (w *execHot) measure(rc runCtx) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	rng := rand.New(rand.NewSource(rc.seed))
	lat := make([][2][]float64, len(w.progs)) // untraced samples
	traces := make([]*execTrace, len(w.progs))
	for i := range traces {
		traces[i] = &execTrace{engines: map[string][]float64{}}
	}
	pairs := 2 * len(w.progs)
	runs := 0
	start := time.Now()
	deadline := start.Add(rc.seconds)
	var op int64
	for round := 0; time.Now().Before(deadline); round++ {
		tracedRound := rc.led != nil && round%2 == 1
		for _, k := range rng.Perm(pairs) {
			e, mode := w.progs[k/2], k%2
			op++
			o.attempted++
			var led *ledger
			var prof *obs.ForallProfiler
			var allocs0 uint64
			if tracedRound {
				led = rc.led
				if mode == modePar {
					prof = obs.NewForallProfiler()
				} else {
					allocs0 = goAllocs()
				}
			}
			root := led.begin(op, 0, "exec-hot."+modeNames[mode]+"."+e.label, false)
			t0 := time.Now()
			v, out, st, err := e.run(mode, prof)
			t1 := time.Now()
			if tracedRound && mode == modeSerial {
				traces[k/2].allocs = append(traces[k/2].allocs, float64(goAllocs()-allocs0))
			}
			name := "interp.RunCompiled"
			if mode == modePar {
				name = "parexec.Run"
			}
			led.add(op, root, name, t0, t1, false)
			if err == nil {
				err = e.ref.check(e.label, v.String(), out)
			}
			led.end(root)
			if err != nil {
				o.wrongOutput("%s %s: %v", e.label, modeNames[mode], err)
				continue
			}
			runs++
			if st.Steps != e.steps[mode] {
				o.breaks("%s %s: %d steps, set-up's run took %d", e.label, modeNames[mode], st.Steps, e.steps[mode])
			}
			d := ms(t1.Sub(t0))
			if !tracedRound {
				lat[k/2][mode] = append(lat[k/2][mode], d)
				continue
			}
			tr := traces[k/2]
			tr.lat[mode] = append(tr.lat[mode], d)
			if prof != nil {
				tr.parRuns++
				tr.parWall += d
				for _, s := range prof.Report() {
					tr.forallWall += float64(s.WallUS) / 1000
					tr.busy = append(tr.busy, s.BusyPct/100)
					tr.wait = append(tr.wait, s.WaitPct/100)
					tr.imb = append(tr.imb, s.Imbalance)
					tr.barriers += s.Barriers
					tr.tasks += s.Tasks
				}
			}
		}
		if tracedRound {
			for i, e := range w.progs {
				if err := e.offPath(rc.led, &op, traces[i]); err != nil {
					o.breaks("%v", err)
				}
			}
		}
	}
	elapsed := time.Since(start)

	var serial, par, tails []float64
	for i, e := range w.progs {
		for mode := range lat[i] {
			if len(lat[i][mode]) == 0 {
				return nil, fmt.Errorf("%s %s: no run completed", e.label, modeNames[mode])
			}
			// p90: a class gets a few hundred runs, too few for p99.
			tails = append(tails, quantile(lat[i][mode], 0.90))
		}
		serial = append(serial, median(lat[i][modeSerial]))
		par = append(par, median(lat[i][modePar]))
	}
	o.opP50 = geomean(append(append([]float64(nil), serial...), par...))
	o.opTail = geomean(tails)
	o.maxRate = float64(runs) / elapsed.Seconds()
	o.named = []named{
		{"serial_ms", "ms", geomean(serial)},
		{"par_ms", "ms", geomean(par)},
		{"fail_frac", "ratio", float64(o.failed) / float64(o.attempted)},
	}
	for i, e := range w.progs {
		o.named = append(o.named,
			named{"serial_ms." + e.label, "ms", serial[i]},
			named{"par_ms." + e.label, "ms", par[i]})
	}
	if rc.led != nil {
		w.layers(o, traces, serial, par)
	}
	return o, nil
}

// offPath sizes engine and pool changes next to the default path: the
// serial run on every other engine (kernel runs the planned program, as
// its strips only exist there), the pool at one PE, and the kernel
// engine on the pool for its gather/scatter phases. Each result is
// checked against the reference too.
func (e *execProg) offPath(led *ledger, op *int64, tr *execTrace) error {
	type offRun struct {
		name string
		eng  interp.Engine
		cp   *interp.CompiledProgram
	}
	for _, r := range []offRun{
		{"compiled", interp.EngineCompiled, e.serial},
		{"bytecode", interp.EngineBytecode, e.serial},
		{"kernel", interp.EngineKernel, e.par},
	} {
		*op++
		var out bytes.Buffer
		t0 := time.Now()
		v, _, err := interp.RunCompiled(r.cp, interp.Config{Engine: r.eng, Seed: e.p.seed, Output: &out}, e.p.fn, e.p.args...)
		t1 := time.Now()
		led.add(*op, 0, "interp.RunCompiled."+r.name, t0, t1, true)
		if err == nil {
			err = e.ref.check(e.label, v.String(), out.String())
		}
		if err != nil {
			return fmt.Errorf("%s on %s: %w", e.label, r.name, err)
		}
		tr.engines[r.name] = append(tr.engines[r.name], ms(t1.Sub(t0)))
	}
	for _, pool := range []struct {
		name string
		eng  interp.Engine
		pes  int
	}{{"parexec.Run.pes1", interp.EngineCompiled, 1}, {"parexec.Run.kernel", interp.EngineKernel, pes}} {
		*op++
		var out bytes.Buffer
		prof := obs.NewForallProfiler()
		t0 := time.Now()
		v, _, err := parexec.Run(e.planned, parexec.Options{Interp: pool.eng, Compiled: e.par, PEs: pool.pes,
			Seed: e.p.seed, Output: &out, Profiler: prof}, e.p.fn, e.p.args...)
		t1 := time.Now()
		led.add(*op, 0, pool.name, t0, t1, true)
		if err == nil {
			err = e.ref.check(e.label, v.String(), out.String())
		}
		if err != nil {
			return fmt.Errorf("%s on %s: %w", e.label, pool.name, err)
		}
		if pool.pes == 1 {
			tr.pes1 = append(tr.pes1, ms(t1.Sub(t0)))
			continue
		}
		var g, s int64
		for _, site := range prof.Report() {
			g += site.GatherUS
			s += site.ScatterUS
		}
		if g+s > 0 {
			tr.gather = append(tr.gather, float64(g)/1000)
			tr.scatter = append(tr.scatter, float64(s)/1000)
		}
	}
	return nil
}

func (w *execHot) layers(o *outcome, traces []*execTrace, serialUntraced, parUntraced []float64) {
	l := o.layer
	var tracedMed, untracedMed, gather, scatter []float64
	for i, e := range w.progs {
		tr, p := traces[i], e.label
		if len(tr.lat[modeSerial]) == 0 || len(tr.lat[modePar]) == 0 {
			continue
		}
		s, pa := median(tr.lat[modeSerial]), median(tr.lat[modePar])
		tracedMed = append(tracedMed, s, pa)
		untracedMed = append(untracedMed, serialUntraced[i], parUntraced[i])
		l["interp.serial_ms."+p] = s
		for eng, xs := range tr.engines {
			l["interp.serial_ms."+eng+"."+p] = median(xs)
		}
		l["interp.steps."+p] = float64(e.steps[modeSerial])
		l["interp.go_allocs_per_run."+p] = median(tr.allocs)
		l["parexec.par_ms."+p] = pa
		l["parexec.par_ms.pes1."+p] = median(tr.pes1)
		l["parexec.busy_frac."+p] = mean(tr.busy)
		l["parexec.wait_frac."+p] = mean(tr.wait)
		l["parexec.imbalance."+p] = mean(tr.imb)
		if tr.parRuns > 0 {
			l["parexec.barriers."+p] = float64(tr.barriers) / float64(tr.parRuns)
			l["parexec.tasks."+p] = float64(tr.tasks) / float64(tr.parRuns)
			l["parexec.serial_frac."+p] = 1 - tr.forallWall/tr.parWall
		}
		l["parexec.speedup."+p] = s / pa
		gather = append(gather, tr.gather...)
		scatter = append(scatter, tr.scatter...)
	}
	// Only vectorized strips gather and scatter; per kernel-engine run.
	l["interp.kernel.gather_ms"] = mean(gather)
	l["interp.kernel.scatter_ms"] = mean(scatter)
	if u := geomean(untracedMed); u > 0 {
		l["trace.overhead_frac"] = (geomean(tracedMed) - u) / u
	}
}
