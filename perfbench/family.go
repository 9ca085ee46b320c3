package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// program is one runnable PSL program: source, entry point and the
// input it runs on.
type program struct {
	name string
	src  string
	fn   string
	args []interp.Value
	seed uint64 // feeds the rand() builtin
}

// reference is what a correct run returns: the value rendered like
// print() would, plus the print() stream.
type reference struct {
	result string
	output string
}

// oracle runs p with the tree-walking engine on the unplanned program,
// the reference every timed run is compared against.
func oracle(p program) (reference, error) {
	prog, err := lang.Parse(p.src)
	if err != nil {
		return reference{}, fmt.Errorf("%s: parse: %w", p.name, err)
	}
	var out bytes.Buffer
	v, _, err := interp.Run(prog, interp.Config{Engine: interp.EngineWalk, Seed: p.seed, Output: &out}, p.fn, p.args...)
	if err != nil {
		return reference{}, fmt.Errorf("%s: reference run: %w", p.name, err)
	}
	return reference{result: v.String(), output: out.String()}, nil
}

// check compares a run's rendered result and print output with the
// reference.
func (r reference) check(name, result, output string) error {
	if got := result; got != r.result {
		return fmt.Errorf("%s: result %q, want %q", name, got, r.result)
	}
	if output != r.output {
		return fmt.Errorf("%s: print output differs from the reference (%d vs %d bytes)", name, len(output), len(r.output))
	}
	return nil
}

// corpus reads the repository's testdata programs; each runs main().
func corpus() ([]program, error) {
	names, err := filepath.Glob(filepath.Join("testdata", "*.psl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out []program
	for _, n := range names {
		src, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		out = append(out, program{name: strings.TrimSuffix(filepath.Base(n), ".psl"), src: string(src), fn: "main"})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no testdata/*.psl programs (run from the repository root)")
	}
	return out, nil
}

// The measured programs of the repository, at a given input size.
func forceProgram(n int64) program {
	return program{name: "force", src: nbody.BarnesHutForcePSL, fn: nbody.ForceFunc,
		args: []interp.Value{interp.IntVal(n), interp.RealVal(0.5)}, seed: 7}
}

func vecforceProgram(n, steps int64) program {
	return program{name: "vecforce", src: nbody.VecForcePSL, fn: nbody.VecForceFunc,
		args: []interp.Value{interp.IntVal(n), interp.IntVal(steps), interp.RealVal(0.5)}, seed: 7}
}

func polyProgram(n int64) program {
	return program{name: "poly", src: parexec.PolyNormalizePSL, fn: "run",
		args: []interp.Value{interp.IntVal(n), interp.RealVal(1.001)}}
}

func barnesHutProgram(n int64) program {
	return program{name: "barneshut", src: nbody.BarnesHutPSL + barnesHutDriver, fn: "bh_drive",
		args: []interp.Value{interp.IntVal(n), interp.RealVal(0.5)}, seed: 3}
}

// barnesHutDriver runs one timestep of the Barnes-Hut program and folds
// the positions into a number, so the program returns a checkable value.
const barnesHutDriver = `
function real bh_drive(int n, real theta) {
  var Octree *ps = make_particles(n);
  timestep(ps, theta, 0.01);
  var real s = 0.0;
  var Octree *p = ps;
  while p != NULL {
    s = s + p->posx + p->posy + p->posz;
    p = p->next;
  }
  return s;
}
`

// manyLoopProgram is the planner-cost generator's program plus a driver
// that builds an n-element list, runs every generated loop over it and
// sums the list.
func manyLoopProgram(funcs, loops int, n int64) program {
	return program{name: fmt.Sprintf("manyloop-%dx%d", funcs, loops),
		src: transform.ManyLoopProgramPSL(funcs, loops) + manyLoopDriver, fn: "drive", args: []interp.Value{interp.IntVal(n)}}
}

const manyLoopDriver = `
function int drive(int n) {
  var OneWayList *head = NULL;
  var int i = 0;
  while i < n {
    var OneWayList *t = new OneWayList;
    t->data = i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  main(head);
  var int s = 0;
  var OneWayList *p = head;
  while p != NULL {
    s = s + p->data;
    p = p->next;
  }
  return s;
}
`
