// Command perfbench is the repository's benchmark: it prices both sides
// of the paper's trade — what a PSL program costs to analyse, plan and
// compile, and what the planned loops buy back at run time — and how the
// serving layer carries that under load.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see NOTES.md for what each measures and why):
//
//	compile-cold  fresh parse → plan → codegen → first run, one thread
//	exec-hot      precompiled programs, serial vs auto-parallel at PEs = nproc
//	serve-mix     serve.Server over loopback HTTP, open-loop Poisson arrivals
//	fleet-mix     the same traffic through serve.Router over two backends
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics, taken around the same public calls with spans recorded by
// the benchmark itself. Every timed operation's output is checked
// against the tree-walking engine's result on the unplanned program.
// Result and span files go under .bench_build/results.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// pes is the parallelism of every parallel run and the bound on load
// generator senders: the machine's CPU count.
var pes = runtime.NumCPU()

// setupReps is how often set-up runs in one invocation; setup_s is the
// median, and only the last set-up's state is measured.
const setupReps = 7

// workload is a set-up benchmark state, ready to measure.
type workload interface {
	measure(rc runCtx) (*outcome, error)
	close()
}

type runCtx struct {
	seconds time.Duration
	seed    int64
	led     *ledger // nil when untraced
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	wrong             int64    // failed ops whose program ran and answered wrongly or errored
	failures          []string // the first few failures
	broken            []string // benchmark invariants that did not hold
	opP50, opTail     float64  // ms
	maxRate           float64  // 1/s
	named             []named  // the workload's own end-to-end figures, for the report
	layer             map[string]float64
}

type named struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// fail counts a failed op: an error, a refusal or a timeout.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// wrongOutput counts a failed op whose program did not produce the
// reference result, which makes the run incorrect.
func (o *outcome) wrongOutput(format string, args ...any) {
	o.wrong++
	o.fail(format, args...)
}

func (o *outcome) breaks(format string, args ...any) {
	o.broken = append(o.broken, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(seed int64, traced bool) (workload, error){
	"compile-cold": setupCompileCold,
	"exec-hot":     setupExecHot,
	"serve-mix":    func(seed int64, traced bool) (workload, error) { return setupServe(seed, traced, false) },
	"fleet-mix":    func(seed int64, traced bool) (workload, error) { return setupServe(seed, traced, true) },
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: compile-cold, exec-hot, serve-mix or fleet-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	traced := *trace == 1

	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = setup(*seed, traced); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *name, err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	var led *ledger
	if traced {
		led = newLedger()
	}
	runtime.GC()
	heap := startHeapSampler(2 * time.Millisecond)
	o, err := w.measure(runCtx{seconds: time.Duration(*seconds) * time.Second, seed: *seed, led: led})
	peak := heap.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	res := result{Correct: o.wrong == 0 && len(o.broken) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricOut{}}
	record := map[string]any{"workload": *name, "trace": *trace, "env": envStamp(*seed), "setup_s_samples": setups}
	if traced {
		layers, unattributed := led.summary()
		o.layer["ledger.unattributed_frac"] = unattributed
		if o.attempted > 0 {
			o.layer["fail_frac"] = float64(o.failed) / float64(o.attempted)
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricOut{Value: o.layer[m.name], Unit: m.unit}
		}
		record["layers"] = layers
	} else {
		e2e := map[string]float64{"setup_s": median(setups), "peak_heap_mb": peak,
			"op_ms_p50": o.opP50, "op_ms_tail": o.opTail, "max_ops_per_s": o.maxRate}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricOut{Value: e2e[m.name], Unit: m.unit}
		}
	}
	record["result"] = res
	record["named"] = o.named
	record["failures"] = o.failures
	record["broken"] = o.broken

	for _, m := range o.failures {
		fmt.Fprintf(os.Stderr, "perfbench: failed op: %s\n", m)
	}
	for _, m := range o.broken {
		fmt.Fprintf(os.Stderr, "perfbench: invariant broken: %s\n", m)
	}
	if err := writeRecord(record, led, *name, *seed, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	env, _ := json.Marshal(record["env"]) // a map of strings and numbers always encodes
	fmt.Printf("env %s\n", env)
	if !traced {
		for _, n := range o.named {
			fmt.Printf("%-14s %-14s %14.4f %s\n", *name, n.Name, n.Value, n.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func writeRecord(record map[string]any, led *ledger, name string, seed int64, trace int) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace))
	b, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if led != nil {
		return led.write(base + "-spans.jsonl.gz")
	}
	return nil
}

// envStamp records where and on what a result was measured.
func envStamp(seed int64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"seed":       seed,
		"commit":     commitID(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the code measured: the VCS revision stamped into the
// binary when it was built inside a repository, otherwise a digest of
// the checkout's Go sources and testdata.
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(path); !d.IsDir() && (ext == ".go" || ext == ".psl" || ext == ".mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree-sha256:%x", h.Sum(nil)[:12])
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports (BENCHMARK.json's
// end_to_end list); their meaning per workload is in NOTES.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"max_ops_per_s", "1/s"},
}

// execPrograms are exec-hot's program labels, in report order.
var execPrograms = []string{"force", "vecforce", "poly"}

// perLayer are the metrics every traced run reports (BENCHMARK.json's
// per_layer list). A layer a workload does not reach reads 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"lang.parse_ms", "ms"},
		{"transform.plan_ms", "ms"},
		{"transform.loops", "count"},
		{"transform.parallelized", "count"},
		{"transform.vectorized", "count"},
		{"analysis.analyze_ms", "ms"},
		{"interp.codegen_ms", "ms"},
		{"compile.ir_ms", "ms"},
		{"bytecode.lower_ms", "ms"},
		{"interp.first_run_ms", "ms"},
		{"interp.code_builds", "count"},
	}
	for _, p := range execPrograms {
		d = append(d,
			metricDef{"interp.serial_ms." + p, "ms"},
			metricDef{"interp.serial_ms.bytecode." + p, "ms"},
			metricDef{"interp.serial_ms.kernel." + p, "ms"},
			metricDef{"interp.serial_ms.compiled." + p, "ms"},
			metricDef{"interp.steps." + p, "count"},
			metricDef{"interp.go_allocs_per_run." + p, "count"},
			metricDef{"parexec.par_ms." + p, "ms"},
			metricDef{"parexec.par_ms.pes1." + p, "ms"},
			metricDef{"parexec.busy_frac." + p, "ratio"},
			metricDef{"parexec.wait_frac." + p, "ratio"},
			metricDef{"parexec.imbalance." + p, "ratio"},
			metricDef{"parexec.barriers." + p, "count"},
			metricDef{"parexec.tasks." + p, "count"},
			metricDef{"parexec.serial_frac." + p, "ratio"},
			metricDef{"parexec.speedup." + p, "ratio"},
		)
	}
	d = append(d,
		metricDef{"interp.kernel.gather_ms", "ms"},
		metricDef{"interp.kernel.scatter_ms", "ms"},
		metricDef{"serve.admission_ms_p50", "ms"},
		metricDef{"serve.cache_ms_p50", "ms"},
		metricDef{"serve.build_ms_p50", "ms"},
		metricDef{"serve.execute_ms_p50", "ms"},
		metricDef{"serve.execute_ms_p99", "ms"},
		metricDef{"serve.merge_ms_p50", "ms"},
		metricDef{"serve.http_ms_p50", "ms"},
		metricDef{"serve.hit_ratio", "ratio"},
		metricDef{"serve.evictions", "count"},
		metricDef{"serve.compiles", "count"},
		metricDef{"serve.rejected", "count"},
		metricDef{"router.hop_ms_p50", "ms"},
		metricDef{"router.hit_ratio", "ratio"},
		metricDef{"router.dup_compiles", "count"},
		metricDef{"router.retries", "count"},
		metricDef{"loadgen.lag_ms_p99", "ms"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"ledger.unattributed_frac", "ratio"},
		metricDef{"fail_frac", "ratio"},
	)
	return d
}()
