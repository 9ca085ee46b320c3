package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/transform"
)

// compile-cold: every op parses a program afresh, plans it, compiles it
// and runs it once at a tiny input, on one thread. interp's code cache
// is keyed by *lang.Program, so a fresh parse is what keeps the op cold;
// the benchmark asserts interp.CompileCount rises by exactly one per op.

// member is one program of the compile-cold family with what set-up
// learned about it.
type member struct {
	p      program
	ref    reference
	counts planCounts
	steps  int64 // of the planned program's first run; 0 until seen
}

type planCounts struct{ loops, parallelized, vectorized int }

func countPlan(pl *transform.Plan) planCounts {
	c := planCounts{loops: len(pl.Loops), parallelized: pl.Parallelized}
	for _, lp := range pl.Loops {
		if lp.Vectorized {
			c.vectorized++
		}
	}
	return c
}

// The generated programs take ManyLoopProgramPSL sizes up to maxGen
// procedures by maxGen loops; each is one family member.
const maxGen = 4

type compileCold struct {
	named []*member               // the repository's programs
	gen   [maxGen][maxGen]*member // generated, by [funcs-1][loops-1]
}

func setupCompileCold(seed int64, traced bool) (workload, error) {
	progs, err := corpus()
	if err != nil {
		return nil, err
	}
	progs = append(progs, barnesHutProgram(8), forceProgram(8), vecforceProgram(8, 2), polyProgram(16))
	w := &compileCold{}
	for _, p := range progs {
		m, err := newMember(p)
		if err != nil {
			return nil, err
		}
		w.named = append(w.named, m)
	}
	for f := 1; f <= maxGen; f++ {
		for l := 1; l <= maxGen; l++ {
			if w.gen[f-1][l-1], err = newMember(manyLoopProgram(f, l, 8)); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

func newMember(p program) (*member, error) {
	ref, err := oracle(p)
	if err != nil {
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
	return &member{p: p, ref: ref, counts: countPlan(pl)}, nil
}

func (w *compileCold) close() {}

// sequence yields the ops' programs in seeded rounds. Each round visits
// every repository program once, plus one generated program; the
// generated sizes go through all maxGen×maxGen combinations in a seeded
// order before repeating. Every run thus draws the same mix, in an order
// the seed picks, so a quantile does not depend on how the draws fell.
type sequence struct {
	w     *compileCold
	rng   *rand.Rand
	round []*member
	gens  []int
}

func (q *sequence) next() *member {
	if len(q.round) == 0 {
		if len(q.gens) == 0 {
			q.gens = q.rng.Perm(maxGen * maxGen)
		}
		g := q.gens[0]
		q.gens = q.gens[1:]
		q.round = append(append(q.round, q.w.named...), q.w.gen[g/maxGen][g%maxGen])
		q.rng.Shuffle(len(q.round), func(i, j int) { q.round[i], q.round[j] = q.round[j], q.round[i] })
	}
	m := q.round[0]
	q.round = q.round[1:]
	return m
}

// coldLayers accumulates the traced ops' layer times (ms).
type coldLayers struct {
	n                                                      int
	parse, plan, codegen, firstRun, analyze, ir, lower, op float64
}

func (w *compileCold) measure(rc runCtx) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	seq := &sequence{w: w, rng: rand.New(rand.NewSource(rc.seed))}
	width := transform.DefaultWidth(pes)
	var lat, untracedLat []float64
	var tl coldLayers
	start := time.Now()
	deadline := start.Add(rc.seconds)
	for op := int64(1); time.Now().Before(deadline); op++ {
		m := seq.next()
		var led *ledger
		if rc.led != nil && op%2 == 0 {
			led = rc.led
		}
		o.attempted++
		builds := interp.CompileCount()
		root := led.begin(op, 0, "compile-cold.op", false)
		t0 := time.Now()
		prog, err := lang.Parse(m.p.src)
		t1 := time.Now()
		if err != nil {
			led.end(root)
			o.wrongOutput("%s: parse: %v", m.p.name, err)
			continue
		}
		pl, err := transform.AutoParallelize(prog, width)
		t2 := time.Now()
		if err != nil {
			led.end(root)
			o.wrongOutput("%s: plan: %v", m.p.name, err)
			continue
		}
		cp := interp.CompileProgram(pl.Program)
		t3 := time.Now()
		if cp.Err() != nil {
			led.end(root)
			o.wrongOutput("%s: codegen: %v", m.p.name, cp.Err())
			continue
		}
		var out bytes.Buffer
		v, st, err := interp.RunCompiled(cp, interp.Config{Seed: m.p.seed, Output: &out}, m.p.fn, m.p.args...)
		t4 := time.Now()
		led.end(root)
		if err != nil {
			o.wrongOutput("%s: run: %v", m.p.name, err)
			continue
		}
		if err := m.ref.check(m.p.name, v.String(), out.String()); err != nil {
			o.wrongOutput("%v", err)
			continue
		}
		d := ms(t4.Sub(t0))
		lat = append(lat, d)
		if got := interp.CompileCount() - builds; got != 1 {
			o.breaks("%s: %d code builds in one cold op, want 1 (the op was not cold)", m.p.name, got)
		}
		if c := countPlan(pl); c != m.counts {
			o.breaks("%s: plan counts %+v differ from set-up's %+v", m.p.name, c, m.counts)
		}
		if m.steps == 0 {
			m.steps = st.Steps
		} else if st.Steps != m.steps {
			o.breaks("%s: %d steps, earlier run took %d", m.p.name, st.Steps, m.steps)
		}
		if led == nil {
			untracedLat = append(untracedLat, d)
			continue
		}
		led.add(op, root, "lang.Parse", t0, t1, false)
		led.add(op, root, "transform.AutoParallelize", t1, t2, false)
		led.add(op, root, "interp.CompileProgram", t2, t3, false)
		led.add(op, root, "interp.RunCompiled", t3, t4, false)
		tl.n++
		tl.op += d
		tl.parse += ms(t1.Sub(t0))
		tl.plan += ms(t2.Sub(t1))
		tl.codegen += ms(t3.Sub(t2))
		tl.firstRun += ms(t4.Sub(t3))
		if err := w.offPath(led, op, m, pl.Program, &tl); err != nil {
			o.breaks("%v", err)
		}
	}
	elapsed := time.Since(start)
	if len(lat) == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	o.opP50 = median(lat)
	o.opTail = quantile(lat, 0.99)
	o.maxRate = float64(len(lat)) / elapsed.Seconds()
	o.named = []named{
		{"cold_ms_p50", "ms", o.opP50},
		{"cold_ms_p99", "ms", o.opTail},
		{"fail_frac", "ratio", float64(o.failed) / float64(o.attempted)},
		{"ops", "count", float64(len(lat))},
	}
	if rc.led != nil && tl.n > 0 {
		n := float64(tl.n)
		l := o.layer
		l["lang.parse_ms"] = tl.parse / n
		l["transform.plan_ms"] = tl.plan / n
		l["interp.codegen_ms"] = tl.codegen / n
		l["interp.first_run_ms"] = tl.firstRun / n
		l["analysis.analyze_ms"] = tl.analyze / n
		l["compile.ir_ms"] = tl.ir / n
		l["bytecode.lower_ms"] = tl.lower / n
		l["interp.code_builds"] = 1
		var fam planCounts
		for _, m := range w.members() {
			fam.loops += m.counts.loops
			fam.parallelized += m.counts.parallelized
			fam.vectorized += m.counts.vectorized
		}
		l["transform.loops"] = float64(fam.loops)
		l["transform.parallelized"] = float64(fam.parallelized)
		l["transform.vectorized"] = float64(fam.vectorized)
		if u := mean(untracedLat); u > 0 {
			l["trace.overhead_frac"] = (tl.op/n - u) / u
		}
	}
	return o, nil
}

// offPath sizes the layers a cold op does not block on: the path-matrix
// analysis on its own, and the IR and bytecode lowerings the codegen
// performs inside CompileProgram, each on a fresh copy.
func (w *compileCold) offPath(led *ledger, op int64, m *member, planned *lang.Program, tl *coldLayers) error {
	prog, err := lang.Parse(m.p.src)
	if err != nil {
		return err
	}
	t0 := time.Now()
	_, err = analysis.New(prog).AnalyzeAll()
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("%s: AnalyzeAll: %w", m.p.name, err)
	}
	ir, err := compile.Compile(planned)
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("%s: compile.Compile: %w", m.p.name, err)
	}
	_, err = bytecode.Compile(ir)
	t3 := time.Now()
	if err != nil {
		return fmt.Errorf("%s: bytecode.Compile: %w", m.p.name, err)
	}
	led.add(op, 0, "analysis.AnalyzeAll", t0, t1, true)
	led.add(op, 0, "compile.Compile", t1, t2, true)
	led.add(op, 0, "bytecode.Compile", t2, t3, true)
	tl.analyze += ms(t1.Sub(t0))
	tl.ir += ms(t2.Sub(t1))
	tl.lower += ms(t3.Sub(t2))
	return nil
}

func (w *compileCold) members() []*member {
	out := append([]*member(nil), w.named...)
	for f := range w.gen {
		out = append(out, w.gen[f][:]...)
	}
	return out
}
