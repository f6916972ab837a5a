package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one harness-visible call: recorded around the call into a
// layer's public function, never inside the program.
type span struct {
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int // index into the same rank's span list; -1 for a root
}

// tracer keeps the spans of one workload run in memory, one list per rank
// (each rank goroutine appends only to its own), and writes them out when
// the workload ends. A nil *tracer is "tracing off": every method is a
// no-op, so call sites need no branches.
type tracer struct {
	epoch time.Time
	runID string
	spans [][]span
	open  []int // per rank: innermost open span, -1 for none
}

func newTracer(runID string, ranks int) *tracer {
	t := &tracer{epoch: time.Now(), runID: runID, spans: make([][]span, ranks), open: make([]int, ranks)}
	for i := range t.open {
		t.open[i] = -1
	}
	return t
}

// begin opens a span on rank as a child of the rank's innermost open span.
func (t *tracer) begin(rank int, name string) {
	if t == nil {
		return
	}
	t.spans[rank] = append(t.spans[rank], span{Name: name, Start: time.Since(t.epoch), Parent: t.open[rank]})
	t.open[rank] = len(t.spans[rank]) - 1
}

// end closes the rank's innermost open span.
func (t *tracer) end(rank int) {
	if t == nil {
		return
	}
	s := &t.spans[rank][t.open[rank]]
	s.End = time.Since(t.epoch)
	t.open[rank] = s.Parent
}

// traceEvent is one Chrome trace-event ("X" = complete event), the format
// Perfetto and chrome://tracing open directly.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"` // one per rank
	Args map[string]any `json:"args"`
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	var evs []traceEvent
	for rank, list := range t.spans {
		for i, s := range list {
			evs = append(evs, traceEvent{
				Name: s.Name, Ph: "X",
				Ts:  float64(s.Start) / float64(time.Microsecond),
				Dur: float64(s.End-s.Start) / float64(time.Microsecond),
				Pid: 1, Tid: rank,
				Args: map[string]any{"id": i, "parent": s.Parent, "rank": rank, "run": t.runID},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	return path, os.WriteFile(path, b, 0o666)
}
