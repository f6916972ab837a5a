package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// declared is the part of BENCHMARK.json the benchmark itself reads.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which
// is also what the benchmark driver uses. It needs two values or more.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the run-to-run spread of a sample as a share of its median:
// the interquartile distance from four runs up, the full range below.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	if len(v) >= 4 {
		q1, _, q3 := quartiles(v)
		return (q3 - q1) / math.Abs(med)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[len(s)-1] - s[0]) / math.Abs(med)
}

// runKey identifies the inputs a run's exact counters depend on.
type runKey struct {
	workload string
	seed     int64
	seconds  int
	quick    bool
}

func keyOf(r record) runKey { return runKey{r.Workload, r.Seed, r.Seconds, r.Quick} }

// exactMismatches lists every exact counter that takes two values among
// recs at one runKey.
func exactMismatches(recs []record) map[runKey]map[string][2]float64 {
	seen := map[runKey]map[string]float64{}
	bad := map[runKey]map[string][2]float64{}
	for _, r := range recs {
		k := keyOf(r)
		if seen[k] == nil {
			seen[k] = map[string]float64{}
		}
		for name, v := range r.Exact {
			if old, ok := seen[k][name]; !ok {
				seen[k][name] = v
			} else if old != v {
				if bad[k] == nil {
					bad[k] = map[string][2]float64{}
				}
				bad[k][name] = [2]float64{old, v}
			}
		}
	}
	return bad
}

// compareFiles applies the rule of section 8 of the choosing-metrics guide
// to two result sets: base (a) and candidate (b). It prints one row per
// (workload, end-to-end metric) and every exact-counter mismatch, and
// reports whether b is free of regressions and mismatches.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	decl, err := readDeclared(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	ok := true

	// Exact counters first: a mismatch inside one file means the harness
	// (or the program) is not deterministic and nothing else can be
	// trusted; a mismatch only between the files means the program changed.
	for side, recs := range map[string][]record{aPath: a, bPath: b} {
		for k, names := range exactMismatches(recs) {
			for _, name := range sortedKeys(names) {
				v := names[name]
				fmt.Fprintf(w, "MISMATCH %s seed %d: %s is %v and %v within %s: harness nondeterministic\n", k.workload, k.seed, name, v[0], v[1], side)
				ok = false
			}
		}
	}
	if ok {
		for k, names := range exactMismatches(append(append([]record(nil), a...), b...)) {
			for _, name := range sortedKeys(names) {
				v := names[name]
				fmt.Fprintf(w, "MISMATCH %s seed %d: %s is %v in %s and %v in %s: program changed\n", k.workload, k.seed, name, v[0], aPath, v[1], bPath)
				ok = false
			}
		}
	}

	sample := func(recs []record, workload, metric string) []float64 {
		var v []float64
		for _, r := range recs {
			if m, have := r.Metrics[metric]; have && r.Workload == workload && !r.Traced {
				v = append(v, m.Value)
			}
		}
		return v
	}
	fmt.Fprintf(w, "%-12s %-13s %4s %12s %25s %12s %25s %9s %7s  %s\n",
		"workload", "metric", "n", "base median", "base [q1, q3]", "cand median", "cand [q1, q3]", "cand/base", "bound", "verdict")
	var regressed, unresolved int
	for _, wl := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			va, vb := sample(a, wl.Name, m.Name), sample(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-13s %2d/%-2d %12.5g %25s %12.5g %25s %9.4f %6.0f%%  %s\n",
				wl.Name, m.Name, len(va), len(vb), ma, quartileText(va), mb, quartileText(vb), mb/ma, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "base %s, candidate %s: %d regressed, %d unresolved (spread wider than the bound: neither a gain nor \"unchanged\" may be claimed)\n",
		aPath, bPath, regressed, unresolved)
	return ok && regressed == 0, nil
}

func quartileText(v []float64) string {
	if len(v) < 4 {
		return "-"
	}
	q1, _, q3 := quartiles(v)
	return fmt.Sprintf("[%.5g, %.5g]", q1, q3)
}
