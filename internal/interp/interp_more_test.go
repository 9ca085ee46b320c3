package interp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/nbody"
)

// TestNestedForallSimulated: a forall inside a forall accounts time
// sensibly (inner barrier charged within the iteration's cost).
func TestNestedForallSimulated(t *testing.T) {
	src := `
procedure inner(int j) {
  var int s = 0;
  for k = 1 to 50 { s = s + k; }
}
procedure main() {
  forall i = 0 to 3 {
    forall j = 0 to 3 {
      inner(j);
    }
  }
}`
	prog := lang.MustParse(src)
	ip := New(prog, Config{Mode: Simulated, PEs: 4})
	if _, err := ip.Call("main"); err != nil {
		t.Fatal(err)
	}
	st := ip.Stats()
	if st.Barriers != 5 { // 4 inner + 1 outer
		t.Errorf("barriers = %d, want 5", st.Barriers)
	}
	if st.Cycles <= 0 || st.WorkCycles < st.Cycles {
		t.Errorf("cycles=%d work=%d", st.Cycles, st.WorkCycles)
	}
}

// TestForallReturnRejectedSimulated: return inside a simulated forall is
// an error (it has no sensible parallel semantics).
func TestForallReturnRejectedSimulated(t *testing.T) {
	src := `
function int main() {
  forall i = 0 to 3 {
    return 1;
  }
  return 0;
}`
	prog := lang.MustParse(src)
	ip := New(prog, Config{Mode: Simulated, PEs: 2})
	if _, err := ip.Call("main"); err == nil || !strings.Contains(err.Error(), "forall") {
		t.Errorf("expected forall-return error, got %v", err)
	}
}

// TestPrintPointerForms: NULL and node values print deterministically.
func TestPrintPointerForms(t *testing.T) {
	src := `
type T [X] { int v; T *next is uniquely forward along X; };
procedure main() {
  var T *p = NULL;
  print(p);
  p = new T;
  print(p);
}`
	prog := lang.MustParse(src)
	var out bytes.Buffer
	ip := New(prog, Config{Output: &out})
	if _, err := ip.Call("main"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "NULL" {
		t.Errorf("null printed as %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "<T#") {
		t.Errorf("node printed as %q", lines[1])
	}
}

// TestCallArityMismatch: calling with wrong arg count via the API fails.
func TestCallArityMismatch(t *testing.T) {
	prog := lang.MustParse(`procedure f(int a) { }`)
	ip := New(prog, Config{})
	if _, err := ip.Call("f"); err == nil {
		t.Error("arity mismatch must error")
	}
	if _, err := ip.Call("nosuch"); err == nil {
		t.Error("unknown function must error")
	}
}

// TestFunctionFallsOffEnd: a function that can fail to return is a
// runtime error when it does.
func TestFunctionFallsOffEnd(t *testing.T) {
	prog := lang.MustParse(`
function int f(bool b) {
  if b {
    return 1;
  }
}`)
	ip := New(prog, Config{})
	if _, err := ip.Call("f", BoolVal(false)); err == nil || !strings.Contains(err.Error(), "fell off") {
		t.Errorf("expected fall-off error, got %v", err)
	}
	if v, err := ip.Call("f", BoolVal(true)); err != nil || v.I != 1 {
		t.Errorf("true path: %v %v", v, err)
	}
}

// TestFormatRoundTripBarnesHut: the printer output of the full
// Barnes-Hut program re-parses and runs to the same trajectories.
func TestFormatRoundTripBarnesHut(t *testing.T) {
	prog := lang.MustParse(nbody.BarnesHutPSL)
	text := lang.Format(prog)
	prog2, err := lang.Parse(text)
	if err != nil {
		t.Fatalf("formatted Barnes-Hut does not re-parse: %v", err)
	}
	run := func(p *lang.Program) Value {
		ip := New(p, Config{Seed: 7})
		v, err := ip.Call("simulate", IntVal(16), IntVal(1), RealVal(0.5), RealVal(0.01))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v1, v2 := run(prog), run(prog2)
	x1 := v1.N.Data["posx"].AsReal()
	x2 := v2.N.Data["posx"].AsReal()
	if x1 != x2 {
		t.Errorf("round-tripped program diverges: %g vs %g", x1, x2)
	}
}

// TestSimulatedDeterminism: identical configs give identical cycle
// counts (the property the table harness depends on).
func TestSimulatedDeterminism(t *testing.T) {
	prog := lang.MustParse(nbody.BarnesHutPSL)
	run := func() int64 {
		ip := New(prog, Config{Mode: Simulated, PEs: 3, Seed: 11})
		if _, err := ip.Call("simulate", IntVal(20), IntVal(1), RealVal(0.5), RealVal(0.01)); err != nil {
			t.Fatal(err)
		}
		return ip.Stats().Cycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("simulated cycles not deterministic: %d vs %d", a, b)
	}
}

// TestCompiledForallReusesFrames: under an installed Forall scheduler
// the compiled engine gives each iteration a frame from the worker's
// pool instead of a fresh copy of the enclosing frame, so a long
// scheduled forall allocates nothing per iteration (the per-iteration
// copy was 88% of a parallel vecforce run's bytes).
func TestCompiledForallReusesFrames(t *testing.T) {
	prog := lang.MustParse(`
procedure main(int n) {
  var int a = 1;
  forall i = 0 to n - 1 {
    var int x = i * a;
  }
}
`)
	var ip *Interp
	var w *Interp
	ip = New(prog, Config{Forall: func(pos lang.Pos, from, to int64, run func(*Interp, int64) error) error {
		if w == nil {
			w = ip.Fork(nil)
		}
		for k := from; k <= to; k++ {
			if err := run(w, k); err != nil {
				return err
			}
		}
		return nil
	}})
	allocs := func(n int64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := ip.Call("main", IntVal(n)); err != nil {
				t.Fatal(err)
			}
		})
	}
	const iters = 1000
	small, large := allocs(10), allocs(10+iters)
	if per := (large - small) / iters; per > 0.01 {
		t.Errorf("%.3f allocations per scheduled forall iteration (%.0f at 10 iterations, %.0f at %d), want 0",
			per, small, large, 10+iters)
	}
}
