package parexec_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// autoPlanned parses src and plans it the way a user who names no loop
// gets it: transform.AutoParallelize at DefaultWidth(pes).
func autoPlanned(t *testing.T, src string, pes int) (serial, planned *lang.Program) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := transform.AutoParallelize(prog, transform.DefaultWidth(pes))
	if err != nil {
		t.Fatal(err)
	}
	if pl.Parallelized == 0 {
		t.Fatal("the planner approved no loop")
	}
	return prog, pl.Program
}

// maxDispatchAllocs bounds the Go allocations a parallel run makes per
// barrier beyond the serial run of the same program. What remains is
// the engine's per-forall iteration closure plus the run's one-off pool
// set-up spread over its barriers: measured 1.19–1.33 on the default
// engine for both programs at PEs 1 and 2 (the channel/WaitGroup pool
// with per-iteration buffers and frame copies made 14.3–14.5).
const maxDispatchAllocs = 2

// TestForallDispatchAllocs: a forall allocates nothing in the pool. A
// run's allocations, less the serial run's, divided by its barriers
// stay under maxDispatchAllocs for PolyNormalizePSL (64 barriers) and
// the vecforce driver (80 barriers) at PEs 1 and 2, with no profiler.
func TestForallDispatchAllocs(t *testing.T) {
	for _, tc := range []struct {
		name, src, fn string
		args          []interp.Value
	}{
		{"poly", parexec.PolyNormalizePSL, "run", []interp.Value{interp.IntVal(512), interp.RealVal(1.001)}},
		{"vecforce", nbody.VecForcePSL, nbody.VecForceFunc, []interp.Value{interp.IntVal(64), interp.IntVal(10), interp.RealVal(0.5)}},
	} {
		serial, planned := autoPlanned(t, tc.src, 2)
		ser := interp.CompileProgram(serial)
		par := interp.CompileProgram(planned)
		base := testing.AllocsPerRun(5, func() {
			if _, _, err := interp.RunCompiled(ser, interp.Config{Seed: 7}, tc.fn, tc.args...); err != nil {
				t.Fatal(err)
			}
		})
		for _, pes := range []int{1, 2} {
			var st interp.Stats
			allocs := testing.AllocsPerRun(5, func() {
				var err error
				_, st, err = parexec.Run(planned, parexec.Options{Compiled: par, PEs: pes, Seed: 7}, tc.fn, tc.args...)
				if err != nil {
					t.Fatal(err)
				}
			})
			if st.Barriers == 0 {
				t.Fatalf("%s pes=%d: no barriers", tc.name, pes)
			}
			per := (allocs - base) / float64(st.Barriers)
			t.Logf("%s pes=%d: %.0f allocs (serial %.0f) over %d barriers: %.2f per barrier", tc.name, pes, allocs, base, st.Barriers, per)
			if per > maxDispatchAllocs {
				t.Errorf("%s pes=%d: %.2f allocations per barrier, want <= %d", tc.name, pes, per, maxDispatchAllocs)
			}
		}
	}
}

// spinSrc runs n short foralls, each iteration spinning for `work`
// statements; iteration `fail` of the last forall divides by zero when
// fail >= 0.
const spinSrc = `
procedure main(int n, int work, int fail) {
  var int r = 0;
  while r < n {
    forall i = 0 to 7 {
      var int j = 0;
      while j < work {
        j = j + 1;
      }
      if r == n - 1 && i == fail {
        j = j / (i - fail);
      }
    }
    r = r + 1;
  }
}
`

// settle waits for the goroutine count to fall back to base: a pool
// that leaves a worker spinning or parked fails here.
func settle(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines after Run, baseline %d\n%s", what, runtime.NumGoroutine(), base,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestForallDispatchTermination: after Run returns on any exit path,
// no worker is left behind — success, a failing iteration, an exceeded
// step limit, Ctx cancelled in the middle of a forall, and more PEs
// than the box has CPUs.
func TestForallDispatchTermination(t *testing.T) {
	prog, err := lang.Parse(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	args := func(n, work, fail int64) []interp.Value {
		return []interp.Value{interp.IntVal(n), interp.IntVal(work), interp.IntVal(fail)}
	}
	for _, tc := range []struct {
		name    string
		opt     parexec.Options
		args    []interp.Value
		cancel  bool   // cancel Ctx while the first forall runs
		wantErr string // "" = must succeed
	}{
		{name: "success", opt: parexec.Options{PEs: 2}, args: args(50, 10, -1)},
		{name: "failing iteration", opt: parexec.Options{PEs: 2}, args: args(50, 10, 3), wantErr: "division by zero"},
		{name: "step limit", opt: parexec.Options{PEs: 2, MaxSteps: 5000}, args: args(50, 100, -1), wantErr: "step"},
		{name: "cancelled mid-forall", opt: parexec.Options{PEs: 2}, args: args(1, 1<<40, -1), cancel: true, wantErr: "cancel"},
		{name: "pes 8", opt: parexec.Options{PEs: 8}, args: args(50, 10, -1)},
		{name: "pes 8 failing", opt: parexec.Options{PEs: 8, Sched: parexec.StaticCyclic}, args: args(50, 10, 5), wantErr: "division by zero"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			opt := tc.opt
			if tc.cancel {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				opt.Ctx = ctx
				time.AfterFunc(20*time.Millisecond, cancel)
			}
			_, st, err := parexec.Run(prog, opt, "main", tc.args...)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one mentioning %q", err, tc.wantErr)
			}
			if tc.wantErr == "" && st.Barriers != tc.args[0].I {
				t.Errorf("barriers = %d, want %d", st.Barriers, tc.args[0].I)
			}
			settle(t, tc.name, base)
		})
	}
}

// stressSrc runs `rounds` tiny foralls of varying width (1 to 5
// iterations), each printing; iteration 2 of round `fail` divides by
// zero when fail >= 0, before it prints (the pool drops a failing
// iteration's own output, so a failure after a print would differ
// from the serial stream by design).
const stressSrc = `
procedure main(int rounds, int fail) {
  var int r = 0;
  while r < rounds {
    forall i = 0 to r % 5 {
      if r == fail && i == 2 {
        print(r / (i - 2));
      }
      print(r, i, r * 8 + i);
    }
    r = r + 1;
  }
}
`

// TestForallDispatchStress: thousands of tiny foralls under every
// policy at PEs 1, 2, 3 and 8 print bit-identically to the serial run
// and fail with its error. Run it under -race: the handoff, the barrier
// and the reused per-run state are exactly what the detector checks.
func TestForallDispatchStress(t *testing.T) {
	prog, err := lang.Parse(stressSrc)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3000
	for _, fail := range []int64{-1, rounds - 7} {
		args := []interp.Value{interp.IntVal(rounds), interp.IntVal(fail)}
		var want bytes.Buffer
		_, _, wantErr := interp.Run(prog, interp.Config{Mode: interp.Simulated, PEs: 1, Output: &want}, "main", args...)
		if (fail >= 0) != (wantErr != nil) {
			t.Fatalf("fail=%d: serial error %v", fail, wantErr)
		}
		for _, pes := range []int{1, 2, 3, 8} {
			for _, pol := range []parexec.Policy{parexec.StaticBlock, parexec.StaticCyclic, parexec.Dynamic(1)} {
				var got bytes.Buffer
				_, st, err := parexec.Run(prog, parexec.Options{PEs: pes, Sched: pol, Output: &got}, "main", args...)
				at := fmt.Sprintf("fail=%d pes=%d sched=%s", fail, pes, pol.Name())
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("%s: err = %v, want %v", at, err, wantErr)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s: output diverged from the serial run (%d vs %d bytes)", at, got.Len(), want.Len())
				}
				if fail < 0 && st.Barriers != rounds {
					t.Errorf("%s: barriers = %d, want %d", at, st.Barriers, rounds)
				}
			}
		}
	}
}

// TestForallProfilerKernelSite: the kernel-strip twin of
// TestForallProfilerRecordsSite. On the kernel engine every strip of
// the vecforce loop computes on both PEs, the root's share included:
// PE 0 is busy, each PE runs one chunk per strip, and the profiler's
// barriers match the engine's.
func TestForallProfilerKernelSite(t *testing.T) {
	c, err := core.Compile(nbody.VecForcePSL)
	if err != nil {
		t.Fatal(err)
	}
	const pes = 2
	par, err := c.StripMine(nbody.VecForceFunc, nbody.VecForceLoop, 8)
	if err != nil {
		t.Fatal(err)
	}
	args := []interp.Value{interp.IntVal(64), interp.IntVal(10), interp.RealVal(0.5)}
	want, _, err := c.Run(core.RunConfig{Seed: 7}, nbody.VecForceFunc, args...)
	if err != nil {
		t.Fatal(err)
	}
	prof := obs.NewForallProfiler()
	got, st, err := parexec.Run(par.Program, parexec.Options{Interp: interp.EngineKernel, PEs: pes, Seed: 7, Profiler: prof},
		nbody.VecForceFunc, args...)
	if err != nil {
		t.Fatal(err)
	}
	if got.F != want.F {
		t.Fatalf("profiled kernel run changed the result: %g, want %g", got.F, want.F)
	}
	rep := prof.Report()
	if len(rep) != 1 {
		t.Fatalf("%d sites, want 1: %+v", len(rep), rep)
	}
	r := rep[0]
	if !r.Kernel {
		t.Fatalf("site did not run on the vector path: %+v", r)
	}
	if r.Barriers != st.Barriers {
		t.Errorf("barriers %d, engine counted %d", r.Barriers, st.Barriers)
	}
	if len(r.PerPE) != pes {
		t.Fatalf("per-PE rows: %+v", r.PerPE)
	}
	var tasks int64
	for _, pe := range r.PerPE {
		tasks += pe.Tasks
	}
	if tasks != r.Tasks || r.Tasks != st.Barriers*pes {
		t.Errorf("tasks: per-PE sum %d, site %d, want %d (barriers × PEs)", tasks, r.Tasks, st.Barriers*pes)
	}
	if r.PerPE[0].BusyUS <= 0 {
		t.Errorf("PE 0 (the root) busy %d µs, want > 0", r.PerPE[0].BusyUS)
	}
}

// TestMeasuredSpeedupTwoPEs: on a box with two or more CPUs, the
// default-engine auto plan of PolyNormalizePSL at DefaultWidth(2) on
// two PEs beats the serial run by at least 1.2× (measured 1.6–1.8× on
// a 2-CPU AMD EPYC box). Under the race detector the floor relaxes to
// 0.7×, as TestKernelSpeedupFloor's does. Each side's time is the best
// seen so far, and rounds continue for up to speedupWindow: a speedup
// needs both CPUs free at once, which `go test ./...` running other
// packages alongside can deny for a few seconds at a time.
func TestMeasuredSpeedupTwoPEs(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skipf("need >= 2 CPUs for a speedup, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	const pes = 2
	const speedupWindow = 20 * time.Second
	serial, planned := autoPlanned(t, parexec.PolyNormalizePSL, pes)
	ser, par := interp.CompileProgram(serial), interp.CompileProgram(planned)
	args := []interp.Value{interp.IntVal(2000), interp.RealVal(1.001)}
	want, _, err := interp.RunCompiled(ser, interp.Config{}, "run", args...)
	if err != nil {
		t.Fatal(err)
	}
	timed := func(best *time.Duration, run func() (interp.Value, error)) {
		t0 := time.Now()
		v, err := run()
		d := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if v.F != want.F {
			t.Fatalf("checksum %g, want %g", v.F, want.F)
		}
		if *best == 0 || d < *best {
			*best = d
		}
	}
	floor := 1.2
	if raceEnabled {
		floor = 0.7
	}
	var s, p time.Duration
	var speedup float64
	start := time.Now()
	rounds := 0
	for rounds < 3 || time.Since(start) < speedupWindow {
		rounds++
		timed(&s, func() (interp.Value, error) {
			v, _, err := interp.RunCompiled(ser, interp.Config{}, "run", args...)
			return v, err
		})
		timed(&p, func() (interp.Value, error) {
			v, _, err := parexec.Run(planned, parexec.Options{Compiled: par, PEs: pes}, "run", args...)
			return v, err
		})
		if speedup = float64(s) / float64(p); rounds >= 3 && speedup >= floor {
			break
		}
	}
	t.Logf("best of %d rounds: serial %v, parallel(%d) %v: speedup %.2fx (floor %.1f)", rounds, s, pes, p, speedup, floor)
	if speedup < floor {
		t.Errorf("speedup %.2fx at %d PEs on %d CPUs; want >= %.1fx", speedup, pes, runtime.NumCPU(), floor)
	}
}

// BenchmarkForallBarrier prices one forall dispatch: 1000 foralls of
// eight empty iterations per op, reported as ns per barrier (the whole
// run divided by its barriers, so the iterations' own statements and
// the one-off pool set-up are included). PEs 4 prices the spin when
// there are more PEs than CPUs on a 2-CPU machine.
func BenchmarkForallBarrier(b *testing.B) {
	prog, err := lang.Parse(spinSrc)
	if err != nil {
		b.Fatal(err)
	}
	args := []interp.Value{interp.IntVal(1000), interp.IntVal(0), interp.IntVal(-1)}
	for _, pes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("pes%d", pes), func(b *testing.B) {
			var barriers int64
			for i := 0; i < b.N; i++ {
				_, st, err := parexec.Run(prog, parexec.Options{PEs: pes}, "main", args...)
				if err != nil {
					b.Fatal(err)
				}
				barriers += st.Barriers
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(barriers), "ns/barrier")
		})
	}
}
