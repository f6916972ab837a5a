package scenario

// The durable job journal: an append-only JSON-lines file at
// <root>/jobs.jsonl recording every job mutation —
//
//	{"op":"submit","id":1,"spec":{...},"target":4}   job accepted
//	{"op":"state","id":1,"state":"running"}          lifecycle transition
//	{"op":"cycle","id":1,"cycles":3}                 cycles completed (last wins)
//	{"op":"snap","id":1,"snapshot":"<dir>"}          checkpoint committed
//
// NewManager replays the journal top to bottom to rebuild the job
// table; records are idempotent state assignments (cycle counts are
// last-wins, not max, so a retry's rewind replays correctly). A
// truncated final line — the signature of a process killed mid-append —
// is skipped, as is any line that fails to parse: losing the very last
// record costs at most one cycle of bookkeeping, never the table.
// Per-cycle diagnostics are deliberately not journaled; they are
// in-memory telemetry, bounded by the retention window.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// journalName is the journal file under the manager root.
const journalName = "jobs.jsonl"

// Journal operations.
const (
	opSubmit = "submit"
	opState  = "state"
	opCycle  = "cycle"
	opSnap   = "snap"
)

// jrec is one journal line.
type jrec struct {
	Op       string `json:"op"`
	ID       int    `json:"id"`
	Spec     *Spec  `json:"spec,omitempty"`
	Target   int    `json:"target,omitempty"`
	State    string `json:"state,omitempty"`
	Err      string `json:"err,omitempty"`
	Cycles   int    `json:"cycles,omitempty"`
	Snapshot string `json:"snapshot,omitempty"`
}

func (m *Manager) journalPath() string {
	return filepath.Join(m.root, journalName)
}

// logLocked appends one record to the journal. Callers hold m.mu, which
// is what orders the records; append+newline is a single write so a
// crash can only truncate the final record, never interleave two. Every
// change of a job's state or diagnostics is journalled, so this is also
// where the diag followers are woken.
func (m *Manager) logLocked(rec jrec) {
	close(m.changed)
	m.changed = make(chan struct{})
	if m.jf == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	m.jf.Write(append(b, '\n'))
}

// replayJournal rebuilds the job table from the journal, if one exists.
func (m *Manager) replayJournal() error {
	b, err := os.ReadFile(m.journalPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("scenario: reading journal: %w", err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec jrec
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // partial trailing line from a crash mid-append
		}
		m.applyRec(rec)
	}
	return nil
}

// applyRec folds one journal record into the job table. Malformed
// records (unknown ids, out-of-order submits) are dropped rather than
// trusted: the journal is an internal file, but a defensive replay
// costs nothing.
func (m *Manager) applyRec(rec jrec) {
	if rec.Op == opSubmit {
		if rec.Spec == nil || rec.ID != len(m.jobs)+1 {
			return
		}
		m.jobs = append(m.jobs, &job{
			id: rec.ID, spec: *rec.Spec, state: StateQueued, target: rec.Target,
		})
		return
	}
	if rec.ID < 1 || rec.ID > len(m.jobs) {
		return
	}
	j := m.jobs[rec.ID-1]
	switch rec.Op {
	case opState:
		j.state = rec.State
		j.err = rec.Err
		if rec.Target > 0 {
			j.target = rec.Target
		}
	case opCycle:
		j.cyclesDone = rec.Cycles
	case opSnap:
		j.snapshot = rec.Snapshot
	}
}
