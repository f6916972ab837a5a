// Command benchmark is the repository's performance instrument: four
// closed-loop convection workloads at ranks = 2, each run in a fresh
// process, with their outputs checked and every metric printed by name
// with its unit. See README.md in this directory for the glossary, the
// layer -> end-to-end map and how to read the trace.
//
//	go run ./benchmark                      all four workloads, untraced
//	go run ./benchmark -trace 1             each workload untraced, then traced
//	go run ./benchmark -workload box-amr    one workload (the driver's form)
//	go run ./benchmark -compare a.jsonl b.jsonl
//
// The harness measures the program from outside, around the calls into
// each layer's public functions; nothing in the program knows about it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const schemaVersion = 1

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	out      string // directory for result files, traces and scratch state
	results  string // JSON-lines result file, appended to
	tmp      string // scratch directory under out, removed at exit
}

func (o options) runID(workload string) string {
	return fmt.Sprintf("%s-seed%d-%ds", workload, o.seed, o.seconds)
}

// setupReps is how often set-up and restore are repeated for their medians.
func (o options) setupReps() int {
	if o.quick {
		return 2
	}
	return 5
}

// replayReps scales the repeat counts of the traced run's layer probes.
func (o options) replayReps() int {
	if o.quick {
		return 3
	}
	return 50
}

func (o options) minresCap() int {
	if o.quick {
		return 10
	}
	return 30
}

// outcome is what a workload run produced.
type outcome struct {
	schedule string
	metrics  map[string]float64
	ops      int
	failures []string
	notes    []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) set(name string, v float64) {
	if _, ok := defOf(name); !ok {
		panic("benchmark: metric " + name + " is not in the ledger")
	}
	o.metrics[name] = v
}

// op counts one checked operation; a violation is listed by name.
func (o *outcome) op(name string, ok bool, detail string) {
	o.ops++
	if !ok {
		o.failures = append(o.failures, name+": "+detail)
	}
}

// writeTrace stores the traced run's spans and notes where they went.
func (o *outcome) writeTrace(tr *tracer, dir, workload string) {
	if path, err := tr.write(dir, workload); err != nil {
		o.failures = append(o.failures, "trace: "+err.Error())
	} else {
		o.notes = append(o.notes, "trace written to "+path)
	}
}

// host is the stamp every result carries.
type host struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Ranks      int     `json:"ranks"`
	Load1      float64 `json:"load1"` // 1-minute load average when the run started
	Started    string  `json:"started"`
}

func stampHost() host {
	h := host{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Ranks: ranks, Load1: -1,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload run as written to the result file, one JSON
// object per line.
type record struct {
	Schema    int              `json:"schema"`
	Host      host             `json:"host"`
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Quick     bool             `json:"quick,omitempty"`
	Traced    bool             `json:"traced"`
	Schedule  string           `json:"schedule"`
	Ops       int              `json:"ops"`
	FailedOps int              `json:"failed_ops"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// Exact holds the counters that must repeat bit-for-bit at fixed
	// ranks, seed and schedule; -compare refuses any mismatch.
	Exact    map[string]float64 `json:"exact"`
	ElapsedS float64            `json:"elapsed_s"` // the whole workload process
}

// contractLine is the last line of a single-workload run's standard
// output, the form the benchmark driver reads.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var o options
	var trace int
	var compare bool
	var spec string
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process: shell-solve, shell-cycle, box-amr or serve-jobs (default: all four, each in a fresh child process)")
	flag.Int64Var(&o.seed, "seed", 1, "moves the thermal perturbation and jitters the service jobs' Rayleigh number")
	flag.IntVar(&o.seconds, "seconds", refSeconds, "nominal run length; scales cycle and job counts, never meshes")
	flag.IntVar(&trace, "trace", 0, "1: record spans and counters around each layer and report the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "tiny meshes and one-cycle schedules (the test suite's setting)")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for results, traces and scratch state")
	flag.StringVar(&o.results, "results", "", "result file to append to, one JSON object per run (default <out>/results.jsonl)")
	flag.BoolVar(&compare, "compare", false, "compare two result files given as arguments")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "the benchmark declaration -compare reads the bounds from")
	flag.Parse()
	o.trace = trace != 0
	if o.results == "" {
		o.results = filepath.Join(o.out, "results.jsonl")
	}
	if o.seconds < 1 {
		fatal(fmt.Errorf("-seconds %d must be positive", o.seconds))
	}

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case o.workload != "":
		rec, err := runWorkload(os.Stdout, o)
		if err != nil {
			fatal(err)
		}
		if rec.FailedOps > 0 {
			os.Exit(1)
		}
	default:
		if err := runAll(o); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// workloadNames lists the workloads in their canonical order.
func workloadNames() []string {
	var names []string
	for _, p := range simPlans {
		names = append(names, p.name)
	}
	return append(names, "serve-jobs")
}

// runWorkload runs one workload in this process, prints its metrics,
// appends its record to the result file and ends with the contract line.
func runWorkload(w io.Writer, o options) (*record, error) {
	start := time.Now()
	h := stampHost()
	if h.Load1 > 0.5 {
		fmt.Fprintf(w, "warning: 1-minute load average is %.2f; timings will be noisy\n", h.Load1)
	}
	if err := os.MkdirAll(o.out, 0o777); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return nil, err
	}
	o.tmp = tmp
	defer os.RemoveAll(tmp)

	var out *outcome
	if o.workload == "serve-jobs" {
		out, err = runServe(o)
		if err != nil {
			return nil, err
		}
	} else {
		found := false
		for _, p := range simPlans {
			if p.name == o.workload {
				out, found = runSim(p, o), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
	}

	rec := &record{
		Schema: schemaVersion, Host: h, Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Quick: o.quick, Traced: o.trace, Schedule: out.schedule,
		Ops: out.ops, FailedOps: len(out.failures), Failures: out.failures,
		Metrics: map[string]value{}, Exact: map[string]float64{},
	}
	line := contractLine{Correct: len(out.failures) == 0, Attempted: out.ops, Failed: len(out.failures), Metrics: map[string]value{}}
	for _, d := range ledger {
		v, measured := out.metrics[d.name]
		if measured {
			rec.Metrics[d.name] = value{v, d.unit}
			if d.exact {
				rec.Exact[d.name] = v
			}
		}
		switch {
		case d.kind == endToEnd && !o.trace:
			if !measured {
				return nil, fmt.Errorf("workload %s did not measure %s", o.workload, d.name)
			}
			line.Metrics[d.name] = value{v, d.unit}
		case d.kind == perLayer && o.trace:
			// The driver wants every per-layer metric from every workload;
			// a layer that did no work on this one reads 0 there. The table
			// and the result file keep to what was measured.
			line.Metrics[d.name] = value{v, d.unit}
		}
	}
	rec.ElapsedS = time.Since(start).Seconds()

	printRecord(w, rec, out.notes)
	if err := appendRecord(o.results, rec); err != nil {
		return nil, err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", b)
	return rec, nil
}

func printRecord(w io.Writer, rec *record, notes []string) {
	mode := "untraced"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s)  seed %d  ranks %d  schedule: %s\n", rec.Workload, mode, rec.Seed, rec.Host.Ranks, rec.Schedule)
	fmt.Fprintf(w, "   host: commit %s  %s  nproc %d  GOMAXPROCS %d  load1 %.2f  schema %d\n",
		rec.Host.Commit, rec.Host.GoVersion, rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.Load1, rec.Schema)
	for _, d := range ledger {
		if v, ok := rec.Metrics[d.name]; ok {
			tag := ""
			if d.exact {
				tag = "  (exact)"
			}
			fmt.Fprintf(w, "   %-28s %14.6g %s%s\n", d.name, v.Value, v.Unit, tag)
		}
	}
	fmt.Fprintf(w, "   ops %d  failed_ops %d  elapsed %.1f s\n", rec.Ops, rec.FailedOps, rec.ElapsedS)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, n := range notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, line := range bytes.Split(b, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		if r.Schema != schemaVersion {
			return nil, fmt.Errorf("%s line %d: schema %d, this benchmark writes %d", path, i+1, r.Schema, schemaVersion)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// runAll runs every workload in a fresh child process of this binary, so
// heap and GC state cannot leak between them; with tracing on, each
// workload runs untraced first and traced second, and the exact counters
// both runs record must agree.
func runAll(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	var bad []string
	child := func(name string, traced bool) (*record, error) {
		args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
			"-trace", strconv.Itoa(b2i(traced)), "-out", o.out, "-results", o.results}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		if exit := (*exec.ExitError)(nil); errors.As(runErr, &exit) {
			bad = append(bad, fmt.Sprintf("%s: %v", name, runErr))
		} else if runErr != nil {
			return nil, runErr
		}
		recs, err := readRecords(o.results)
		if err != nil || len(recs) == 0 {
			return nil, fmt.Errorf("%s left no record in %s: %v", name, o.results, err)
		}
		return &recs[len(recs)-1], nil
	}
	for _, name := range workloadNames() {
		plain, err := child(name, false)
		if err != nil {
			return err
		}
		if !o.trace {
			continue
		}
		traced, err := child(name, true)
		if err != nil {
			return err
		}
		for _, k := range sortedKeys(plain.Exact) {
			if tv, ok := traced.Exact[k]; ok && tv != plain.Exact[k] {
				bad = append(bad, fmt.Sprintf("%s: exact counter %s is %v untraced and %v traced: harness nondeterministic", name, k, plain.Exact[k], tv))
			}
		}
		pw, tw := plain.Metrics["wall_s"].Value, traced.Metrics["wall_s"].Value
		fmt.Printf("   %s: traced wall_s %.3f / untraced %.3f - 1 = %+.4f (run-to-run noise included; rhea.trace_overhead_frac is the in-run measurement)\n",
			name, tw, pw, tw/pw-1)
	}
	fmt.Printf("== total %.1f s, results appended to %s\n", time.Since(start).Seconds(), o.results)
	if len(bad) > 0 {
		return fmt.Errorf("%d problem(s):\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func b2f(b bool) float64 { return float64(b2i(b)) }

// dirKB returns the size of the regular files under dir in KB.
func dirKB(dir string) float64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return float64(n) / 1e3
}
