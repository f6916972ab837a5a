package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

func mustDeclared(t *testing.T) *declared {
	t.Helper()
	d, err := readDeclared(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLedgerMatchesDeclaration keeps metrics.go and BENCHMARK.json in
// step: same names, same units, same order of magnitude of everything
// the driver's contract limits.
func TestLedgerMatchesDeclaration(t *testing.T) {
	d := mustDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads declared, want 2..8", n)
	}
	var declaredWorkloads []string
	for _, w := range d.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name)
	}
	if got, want := strings.Join(declaredWorkloads, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, the benchmark runs %q", got, want)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics declared, want 1..16", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, want 1..128", n)
	}

	want := map[kind]map[string]string{endToEnd: {}, perLayer: {}}
	for _, m := range d.EndToEnd {
		want[endToEnd][m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range d.PerLayer {
		want[perLayer][m.Name] = m.Unit
	}
	if want[endToEnd]["setup_s"] != "s" {
		t.Error("setup_s in seconds must be an end-to-end metric")
	}
	seen := map[string]bool{}
	for _, def := range ledger {
		if !name.MatchString(def.name) || !unit.MatchString(def.unit) {
			t.Errorf("ledger entry %q / %q does not fit the naming rules", def.name, def.unit)
		}
		if seen[def.name] {
			t.Errorf("%s is in the ledger twice", def.name)
		}
		seen[def.name] = true
		if def.kind == phase {
			continue
		}
		if u, ok := want[def.kind][def.name]; !ok || u != def.unit {
			t.Errorf("%s [%s] is in the ledger but BENCHMARK.json has unit %q (declared: %v)", def.name, def.unit, u, ok)
		}
		delete(want[def.kind], def.name)
	}
	for _, rest := range want {
		for n := range rest {
			t.Errorf("%s is declared in BENCHMARK.json but not in the ledger", n)
		}
	}
}

// runQuick runs one workload on the quick schedule and returns its record
// and the contract line it printed last.
func runQuick(t *testing.T, workload string, traced bool, dir string) (*record, contractLine) {
	t.Helper()
	var buf bytes.Buffer
	rec, err := runWorkload(&buf, options{
		workload: workload, seed: refSeed, seconds: refSeconds, trace: traced, quick: true,
		out: dir, results: filepath.Join(dir, "results.jsonl"),
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the contract object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	return rec, line
}

// TestQuickWorkloads runs all four workloads traced and untraced on the
// quick schedule: the printed metric names must be exactly the declared
// ones, no op may fail, the exact counters of both runs must agree, and
// -compare must accept a result set against itself and flag a doctored
// regression (wall_s worse by its bound plus five points) and a doctored
// counter.
func TestQuickWorkloads(t *testing.T) {
	d := mustDeclared(t)
	dir := t.TempDir()
	var plain []record
	for _, w := range workloadNames() {
		recs := map[bool]*record{}
		for _, traced := range []bool{false, true} {
			rec, line := runQuick(t, w, traced, dir)
			recs[traced] = rec
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 || rec.FailedOps != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w, traced, line.Correct, line.Attempted, line.Failed, rec.Failures)
			}
			want := map[string]string{}
			if traced {
				for _, m := range d.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range d.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for n, v := range line.Metrics {
				if want[n] != v.Unit {
					t.Errorf("%s traced=%v prints %s [%s]; BENCHMARK.json declares unit %q", w, traced, n, v.Unit, want[n])
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, n, v.Value)
				}
				delete(want, n)
			}
			for n := range want {
				t.Errorf("%s traced=%v does not print declared metric %s", w, traced, n)
			}
		}
		for k, v := range recs[false].Exact {
			if tv, ok := recs[true].Exact[k]; !ok || tv != v {
				t.Errorf("%s: exact counter %s is %v untraced and %v traced", w, k, v, tv)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w+".json")); err != nil {
			t.Errorf("%s left no trace file: %v", w, err)
		}
		plain = append(plain, *recs[false])
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(entries) > 0 {
		t.Errorf("scratch state left behind: %v", entries)
	}

	write := func(name string, recs []record) string {
		path := filepath.Join(dir, name)
		for i := range recs {
			if err := appendRecord(path, &recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	// doctored returns a deep-enough copy of plain with one record edited.
	doctored := func(edit func(*record)) []record {
		out := make([]record, len(plain))
		for i, r := range plain {
			out[i] = r
			out[i].Metrics, out[i].Exact = maps.Clone(r.Metrics), maps.Clone(r.Exact)
		}
		edit(&out[0])
		return out
	}
	base := write("base.jsonl", plain)
	// A regression five points past wall_s's declared bound.
	factor := 0.0
	for _, m := range d.EndToEnd {
		if m.Name == "wall_s" {
			factor = 1 + m.Bound + 0.05
		}
	}
	slow := write("slow.jsonl", doctored(func(r *record) {
		v := r.Metrics["wall_s"]
		v.Value *= factor
		r.Metrics["wall_s"] = v
	}))
	drift := write("drift.jsonl", doctored(func(r *record) { r.Exact["krylov.iters"]++ }))

	for _, tc := range []struct {
		cand, want string
		ok         bool
	}{
		{base, "0 regressed, 0 unresolved", true},
		{slow, "regressed", false},
		{drift, "program changed", false},
	} {
		var buf bytes.Buffer
		ok, err := compareFiles(&buf, specPath, base, tc.cand)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !strings.Contains(buf.String(), tc.want) {
			t.Errorf("compare %s against base: ok=%v, want %v and %q in\n%s", filepath.Base(tc.cand), ok, tc.ok, tc.want, buf.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
