package scenario

// The execution side of the manager: runJob drives one queued job to a
// terminal state through the automatic-recovery loop, runOnce executes
// a single attempt inside a fresh simulated-MPI world. A rank failure
// (injected fault, real panic, watchdog abort) surfaces as the world's
// error; the recovery loop backs off and restarts from the latest
// committed snapshot. Restart determinism (rhea.Restore is bit-exact)
// is what makes this sound: the healed trajectory is indistinguishable
// from an uninterrupted one.

import (
	"fmt"
	"time"

	"rhea/internal/ckpt"
	"rhea/internal/rhea"
	"rhea/internal/sim"
)

// runJob drives one queued job to a terminal state, retrying failed
// runs from their latest committed snapshot.
func (m *Manager) runJob(j *job) {
	m.mu.Lock()
	j.state = StateRunning
	j.err = ""
	target := j.target
	resumeFrom := j.resumeFrom
	j.resumeFrom = ""
	m.logLocked(jrec{Op: opState, ID: j.id, State: StateRunning, Target: target})
	m.mu.Unlock()

	maxRetries := j.spec.MaxRetries
	if maxRetries == 0 {
		maxRetries = defaultMaxRetries
	} else if maxRetries < 0 {
		maxRetries = 0
	}

	var failure error
	for attempt := 0; ; attempt++ {
		failure = m.runOnce(j, target, resumeFrom)
		if failure == nil || attempt >= maxRetries || j.stop.Load() {
			break
		}
		backoff := m.retryBase << attempt
		if max := 10 * time.Second; backoff > max || backoff <= 0 {
			backoff = max
		}
		time.Sleep(backoff)
		m.mu.Lock()
		j.retries++
		resumeFrom = j.snapshot // "" until a first commit: retry from scratch
		m.mu.Unlock()
	}

	m.mu.Lock()
	if failure != nil && j.err == "" {
		j.err = failure.Error()
	}
	switch {
	case j.err != "":
		j.state = StateFailed
	case j.cyclesDone < target:
		j.state = StateStopped
	default:
		j.state = StateDone
	}
	m.logLocked(jrec{Op: opState, ID: j.id, State: j.state, Err: j.err})
	m.mu.Unlock()
}

// runOnce executes one attempt of the job inside a fresh communicator
// and returns the world's failure, if any. Application-level errors
// (restore or checkpoint failures, a cycle whose verdict is unhealthy)
// are recorded on the job via setError and return a nil world error —
// they are deterministic and not worth retrying.
func (m *Manager) runOnce(j *job, target int, resumeFrom string) error {
	cfg := j.spec.Config()
	world := sim.NewWorld(j.spec.Ranks)

	// Arm the spec's injected fault on the first attempt only: the
	// point of injection is to watch the recovery succeed.
	injectCycle := 0
	if j.spec.FaultCollective > 0 && j.faultArmed.CompareAndSwap(false, true) {
		world.SetFaults(&sim.Faults{
			KillRank:     j.spec.FaultRank,
			AtCollective: j.spec.FaultCollective,
			Hang:         j.spec.FaultHang,
		})
	} else if j.spec.FaultCycle > 0 && j.faultArmed.CompareAndSwap(false, true) {
		injectCycle = j.spec.FaultCycle
	}

	// Watchdog: if rank 0 completes no cycle (and no restore) within the
	// timeout, abort the communicator — every rank unwinds and the
	// attempt becomes a retryable failure instead of a silent hang.
	wd := defaultWatchdog
	if j.spec.WatchdogSec != 0 {
		wd = time.Duration(j.spec.WatchdogSec * float64(time.Second))
	}
	wdDone := make(chan struct{})
	defer close(wdDone)
	if wd > 0 {
		j.lastBeat.Store(time.Now().UnixNano())
		go func() {
			tick := time.NewTicker(wd / 4)
			defer tick.Stop()
			for {
				select {
				case <-wdDone:
					return
				case <-tick.C:
					if time.Since(time.Unix(0, j.lastBeat.Load())) > wd {
						world.Abort(fmt.Sprintf("scenario: watchdog: job %d made no progress for %v", j.id, wd))
						return
					}
				}
			}
		}()
	}

	every := j.spec.CheckpointEvery
	_, err := world.Run(func(r *sim.Rank) {
		// No recover here: a panic escaping this function is converted
		// to a rank failure by the sim runtime, which aborts the world
		// and unblocks every peer — exactly the retryable path.
		var s *rhea.Sim
		if resumeFrom != "" {
			restored, rerr := rhea.Restore(r, cfg, resumeFrom)
			if rerr != nil {
				m.setError(j, rerr)
				return
			}
			s = restored
		} else {
			s = rhea.New(r, cfg)
		}
		start := s.Step / s.Cfg.AdaptEvery
		if r.ID() == 0 {
			m.rewindTo(j, start)
			j.lastBeat.Store(time.Now().UnixNano())
		}
		commit := func(cycle int) bool {
			if err := s.Checkpoint(m.snapDir(j, cycle)); err != nil {
				m.setError(j, err)
				return false
			}
			if r.ID() == 0 {
				m.commitSnapshot(j, cycle)
			}
			return true
		}

		// The stop flag is sampled per rank at different times; the sum
		// makes the decision identical everywhere so no rank leaves the
		// collective sequence early. Once per attempt here, so a job
		// stopped while queued or during New/Restore runs no cycle; after
		// that each cycle's verdict carries the decision.
		var bit int64
		if j.stop.Load() {
			bit = 1
		}
		if r.AllreduceInt64(bit) > 0 {
			if resumeFrom == "" {
				commit(start)
			}
			return
		}
		for c := start; c < target; c++ {
			if injectCycle > 0 && c+1 == injectCycle && r.WorldID() == j.spec.FaultRank {
				sim.Kill(fmt.Sprintf("cycle %d boundary (injected fault)", injectCycle))
			}
			t0 := time.Now()
			ad := s.RunCycle()
			v := s.Diagnose(j.stop.Load())
			if v.Err != nil {
				// Deterministic: a retry would fail the same way.
				m.setError(j, fmt.Errorf("cycle %d: %w", c+1, v.Err))
				return
			}
			d := CycleDiag{
				Cycle:       c + 1,
				Step:        s.Step,
				Time:        s.TimeNow,
				Elements:    ad.ElementsNow,
				MinresIters: s.LastMinres().Iterations,
				Nu:          v.Nu,
				Vrms:        v.Vrms,
				WallSecs:    time.Since(t0).Seconds(),
			}
			if r.ID() == 0 {
				m.appendDiag(j, d)
				j.lastBeat.Store(time.Now().UnixNano())
			}
			// A stop ends the run here, at a cycle boundary with a
			// committed snapshot.
			if v.Stop || c+1 == target || (every > 0 && (c+1)%every == 0) {
				if !commit(c + 1) {
					return
				}
			}
			if v.Stop {
				return
			}
		}
	})
	return err
}

// rewindTo resets the job's cycle bookkeeping to a restored cycle
// count, so a retried or resumed run re-reports cycles from the
// restore point without duplicating diag records. Diags past the
// restore point are truncated; if the retained window no longer covers
// the restore point (e.g. after a server restart lost the in-memory
// diags), the window restarts there and the dropped prefix is visible
// to Diags callers.
func (m *Manager) rewindTo(j *job, start int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := start - j.diagBase; n >= 0 && n <= len(j.diags) {
		j.diags = j.diags[:n]
	} else {
		j.diags = nil
		j.diagBase = start
	}
	j.cyclesDone = start
	m.logLocked(jrec{Op: opCycle, ID: j.id, Cycles: start})
}

// appendDiag records one completed cycle (rank 0 only), enforcing the
// in-memory retention window.
func (m *Manager) appendDiag(j *job, d CycleDiag) {
	m.mu.Lock()
	j.diags = append(j.diags, d)
	if len(j.diags) > m.diagWindow {
		drop := len(j.diags) - m.diagWindow
		j.diags = j.diags[drop:]
		j.diagBase += drop
	}
	j.cyclesDone = d.Cycle
	m.logLocked(jrec{Op: opCycle, ID: j.id, Cycles: d.Cycle})
	m.mu.Unlock()
}

// commitSnapshot records a committed checkpoint as the job's latest
// resumable state and prunes superseded snapshot directories. Called by
// rank 0 after the manifest landed; the GC never touches the newest
// committed snapshot or uncommitted (in-flight) directories.
func (m *Manager) commitSnapshot(j *job, cycle int) {
	dir := m.snapDir(j, cycle)
	m.mu.Lock()
	j.snapshot = dir
	m.logLocked(jrec{Op: opSnap, ID: j.id, Snapshot: dir})
	m.mu.Unlock()
	keep := j.spec.KeepSnapshots
	if keep == 0 {
		keep = defaultKeepSnapshots
	}
	if keep > 0 {
		// Best-effort: a failed prune costs disk, not correctness.
		ckpt.GC(m.jobDir(j.id), keep)
	}
}
