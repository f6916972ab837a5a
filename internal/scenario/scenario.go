// Package scenario turns the rhea library into a long-running service
// component: convection runs described by small JSON specs become
// queued jobs, a worker pool drives their RunCycle loops inside
// simulated-MPI communicators, committed checkpoints are written
// periodically (and always at the end and on stop, so every terminal
// job is resumable), and per-cycle diagnostics are retained for
// streaming. Resuming goes through rhea.Restore, so a resumed job
// continues the exact trajectory of an uninterrupted one — same Adapt
// decisions, bit-identical Nusselt numbers.
//
// The service is durable and self-healing. Every job mutation is
// appended to a JSON-lines journal under the manager root and replayed
// by NewManager, so queued and terminal jobs (with their cycle counts
// and latest snapshots) survive server restarts; jobs that were mid-run
// when the process died come back in the resumable "interrupted" state.
// A run whose communicator aborts — a rank failure, injected or real —
// is retried automatically from its latest committed snapshot with
// bounded exponential backoff, and a per-cycle watchdog aborts runs
// that stop making progress. Superseded snapshots are pruned after each
// commit so retry loops don't grow disk without bound.
package scenario

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rhea/internal/fem"
	"rhea/internal/rhea"
	"rhea/internal/stokes"
)

// ErrNotFound reports a job id that was never issued.
var ErrNotFound = errors.New("scenario: job not found")

// Job lifecycle states. Queued and running are active; everything else
// is terminal. Interrupted marks a job that was running when the server
// died — its journaled snapshot makes it resumable via Resume.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateStopped     = "stopped"
	StateFailed      = "failed"
	StateInterrupted = "interrupted"
)

// Recovery defaults; a Spec's zero value picks these.
const (
	defaultMaxRetries    = 2
	defaultWatchdog      = 300 * time.Second
	defaultKeepSnapshots = 3
	defaultDiagWindow    = 100000
)

// Spec describes one convection scenario over the wire. Zero values
// pick the pinned defaults of the chosen kind, which reproduce the
// repository's regression scenarios (internal/rhea physics_test.go and
// shell_test.go). The initial temperature and viscosity law are fixed
// per kind: rhea's config fingerprint cannot cover function-valued
// fields, so a resumable spec must not let callers vary them.
type Spec struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "box" | "shell"

	Ranks  int `json:"ranks,omitempty"` // communicator size (default 2)
	Cycles int `json:"cycles"`          // RunCycle count (required)

	Ra          float64 `json:"ra,omitempty"`
	BaseLevel   int     `json:"base_level,omitempty"`
	MinLevel    int     `json:"min_level,omitempty"`
	MaxLevel    int     `json:"max_level,omitempty"`
	TargetElems int64   `json:"target_elems,omitempty"`
	AdaptEvery  int     `json:"adapt_every,omitempty"`
	Picard      int     `json:"picard,omitempty"`
	MinresTol   float64 `json:"minres_tol,omitempty"`
	MatrixFree  bool    `json:"matrix_free,omitempty"`
	GMG         bool    `json:"gmg,omitempty"` // geometric multigrid preconditioner

	// CheckpointEvery writes a committed snapshot every N completed
	// cycles (0: only at the end of the run and on stop).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// MaxRetries bounds automatic recovery: a run that dies from a rank
	// failure is retried from the latest committed snapshot with
	// exponential backoff. 0 picks the default (2); -1 disables retries.
	MaxRetries int `json:"max_retries,omitempty"`

	// WatchdogSec aborts the run's communicator when rank 0 completes no
	// cycle (and no restore) for this many seconds, turning a silent hang
	// into a retryable failure. 0 picks the default (300); -1 disables.
	WatchdogSec float64 `json:"watchdog_sec,omitempty"`

	// KeepSnapshots prunes superseded per-cycle snapshot directories
	// after each commit, keeping the newest N (the latest committed
	// snapshot is never removed). 0 picks the default (3); -1 keeps all.
	KeepSnapshots int `json:"keep_snapshots,omitempty"`

	// Fault injection for chaos drills: world rank FaultRank is killed
	// once — at the start of cycle FaultCycle (1-based), or at the
	// rank's FaultCollective-th collective operation (FaultHang parks it
	// there instead, so only the watchdog can free the run). The fault
	// arms at most once per job, so the automatic retry that follows
	// exercises real recovery.
	FaultRank       int  `json:"fault_rank,omitempty"`
	FaultCycle      int  `json:"fault_cycle,omitempty"`
	FaultCollective int  `json:"fault_collective,omitempty"`
	FaultHang       bool `json:"fault_hang,omitempty"`
}

// maxRanks bounds the simulated communicator size a request may ask
// for; every rank is a goroutine driving real solves.
const maxRanks = 64

// normalize fills the spec defaults and validates the rest.
func (sp *Spec) normalize() error {
	if sp.Kind != "box" && sp.Kind != "shell" {
		return fmt.Errorf("scenario: kind %q is not \"box\" or \"shell\"", sp.Kind)
	}
	if sp.Ranks == 0 {
		sp.Ranks = 2
	}
	if sp.Ranks < 1 || sp.Ranks > maxRanks {
		return fmt.Errorf("scenario: ranks %d outside [1, %d]", sp.Ranks, maxRanks)
	}
	if sp.Cycles < 1 {
		return fmt.Errorf("scenario: cycles %d must be positive", sp.Cycles)
	}
	if sp.CheckpointEvery < 0 {
		return fmt.Errorf("scenario: checkpoint_every %d must be non-negative", sp.CheckpointEvery)
	}
	if sp.BaseLevel < 0 || sp.MinLevel < 0 || sp.MaxLevel < 0 {
		return fmt.Errorf("scenario: negative refinement level (base=%d min=%d max=%d)", sp.BaseLevel, sp.MinLevel, sp.MaxLevel)
	}
	// Validate the levels the run will actually use: unset fields take
	// the per-kind defaults (see Config), so a spec like {min_level: 2}
	// is checked against the default max, not against literal zero.
	base, lo, hi := sp.effLevels()
	if lo > hi || base > hi {
		return fmt.Errorf("scenario: inconsistent levels base=%d min=%d max=%d (after per-kind defaults)", base, lo, hi)
	}
	if sp.MaxRetries < -1 {
		return fmt.Errorf("scenario: max_retries %d (use -1 to disable retries)", sp.MaxRetries)
	}
	if sp.WatchdogSec < 0 && sp.WatchdogSec != -1 {
		return fmt.Errorf("scenario: watchdog_sec %v (use -1 to disable the watchdog)", sp.WatchdogSec)
	}
	if sp.KeepSnapshots < -1 {
		return fmt.Errorf("scenario: keep_snapshots %d (use -1 to keep all snapshots)", sp.KeepSnapshots)
	}
	if sp.FaultCycle < 0 || sp.FaultCollective < 0 {
		return fmt.Errorf("scenario: negative fault point")
	}
	if sp.FaultCycle > 0 && sp.FaultCollective > 0 {
		return fmt.Errorf("scenario: fault_cycle and fault_collective are mutually exclusive")
	}
	if sp.FaultHang && sp.FaultCollective == 0 {
		return fmt.Errorf("scenario: fault_hang requires fault_collective")
	}
	if sp.FaultCycle > 0 || sp.FaultCollective > 0 {
		if sp.FaultRank < 0 || sp.FaultRank >= sp.Ranks {
			return fmt.Errorf("scenario: fault_rank %d outside [0, %d)", sp.FaultRank, sp.Ranks)
		}
	}
	return nil
}

// effLevels returns the refinement levels a run of this spec will use:
// the per-kind defaults with any explicitly set fields applied on top.
func (sp *Spec) effLevels() (base, lo, hi int) {
	base, lo, hi = 2, 1, 3
	if sp.Kind == "shell" {
		base = 1
	}
	if sp.BaseLevel != 0 {
		base = sp.BaseLevel
	}
	if sp.MinLevel != 0 {
		lo = sp.MinLevel
	}
	if sp.MaxLevel != 0 {
		hi = sp.MaxLevel
	}
	return base, lo, hi
}

// Config translates the spec into a rhea.Config with the pinned
// per-kind initial condition and viscosity law.
func (sp Spec) Config() rhea.Config {
	var cfg rhea.Config
	switch sp.Kind {
	case "shell":
		cfg = rhea.Config{
			Shell:       true,
			Ra:          1e4,
			InitialTemp: rhea.ShellBlobTemp,
			BaseLevel:   1,
			MinLevel:    1,
			MaxLevel:    3,
			TargetElems: 400,
		}
	default: // "box"
		cfg = rhea.Config{
			Dom:         fem.UnitDomain,
			Ra:          1e4,
			InitialTemp: rhea.BoxBlobTemp,
			BaseLevel:   2,
			MinLevel:    1,
			MaxLevel:    3,
			TargetElems: 200,
		}
	}
	cfg.Visc = rhea.TemperatureDependent(1, 1)
	cfg.AdaptEvery = 4
	cfg.Picard = 1
	cfg.InitAdapt = 1
	if sp.Ra != 0 {
		cfg.Ra = sp.Ra
	}
	if sp.BaseLevel != 0 {
		cfg.BaseLevel = uint8(sp.BaseLevel)
	}
	if sp.MinLevel != 0 {
		cfg.MinLevel = uint8(sp.MinLevel)
	}
	if sp.MaxLevel != 0 {
		cfg.MaxLevel = uint8(sp.MaxLevel)
	}
	if sp.TargetElems != 0 {
		cfg.TargetElems = sp.TargetElems
	}
	if sp.AdaptEvery != 0 {
		cfg.AdaptEvery = sp.AdaptEvery
	}
	if sp.Picard != 0 {
		cfg.Picard = sp.Picard
	}
	if sp.MinresTol != 0 {
		cfg.MinresTol = sp.MinresTol
	}
	cfg.MatrixFree = sp.MatrixFree
	if sp.GMG {
		cfg.MatrixFree = true
		cfg.Precond = stokes.PrecondGMG
	}
	return cfg
}

// CycleDiag is one cycle's worth of streamed diagnostics.
type CycleDiag struct {
	Cycle       int     `json:"cycle"` // 1-based completed-cycle count
	Step        int     `json:"step"`
	Time        float64 `json:"time"`
	Elements    int64   `json:"elements"`
	MinresIters int     `json:"minres_iters"`
	Nu          float64 `json:"nu"`
	Vrms        float64 `json:"vrms"`
	WallSecs    float64 `json:"wall_secs"`
}

// JobView is the externally visible snapshot of a job.
type JobView struct {
	ID           int    `json:"id"`
	Spec         Spec   `json:"spec"`
	State        string `json:"state"`
	Error        string `json:"error,omitempty"`
	CyclesDone   int    `json:"cycles_done"`
	TargetCycles int    `json:"target_cycles"`
	Retries      int    `json:"retries,omitempty"`  // automatic recovery attempts
	Snapshot     string `json:"snapshot,omitempty"` // latest committed checkpoint
}

type job struct {
	id         int
	spec       Spec
	state      string
	err        string
	cyclesDone int
	target     int
	retries    int
	snapshot   string
	resumeFrom string // set while queued for a resume
	diags      []CycleDiag
	diagBase   int // cycles dropped from the front of diags (retention window)
	stop       atomic.Bool
	faultArmed atomic.Bool // the spec's injected fault fires at most once
	lastBeat   atomic.Int64
}

// Manager owns the job table, the queue, the worker pool and the
// durable journal. All methods are safe for concurrent use.
type Manager struct {
	root       string
	diagWindow int           // per-job in-memory diag retention (cycles)
	retryBase  time.Duration // first retry backoff; doubles per attempt
	mu         sync.Mutex
	jf         *os.File // append handle on the journal; nil after Close
	jobs       []*job
	changed    chan struct{} // closed and replaced by logLocked; see changedSignal
	queue      chan *job
	wg         sync.WaitGroup
	closed     bool
}

// NewManager starts workers goroutines draining a job queue.
// Checkpoints and the job journal live under root. An existing journal
// is replayed first: terminal jobs come back as queryable history,
// still-queued jobs are re-enqueued (resuming from their latest
// snapshot where one was committed), and jobs that were running when
// the previous process died are demoted to the resumable interrupted
// state.
func NewManager(root string, workers int) (*Manager, error) {
	if workers < 1 {
		workers = 1
	}
	m := &Manager{
		root:       root,
		diagWindow: defaultDiagWindow,
		retryBase:  250 * time.Millisecond,
		changed:    make(chan struct{}),
		queue:      make(chan *job, 1024),
	}
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := m.replayJournal(); err != nil {
		return nil, err
	}
	jf, err := os.OpenFile(m.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("scenario: opening journal: %w", err)
	}
	m.jf = jf
	for _, j := range m.jobs {
		switch j.state {
		case StateRunning:
			j.state = StateInterrupted
			j.err = "interrupted by server restart"
			m.logLocked(jrec{Op: opState, ID: j.id, State: j.state, Err: j.err})
		case StateQueued:
			if j.snapshot != "" {
				j.resumeFrom = j.snapshot
			}
			select {
			case m.queue <- j:
			default:
				j.state = StateInterrupted
				j.err = "job queue full on restart"
				m.logLocked(jrec{Op: opState, ID: j.id, State: j.state, Err: j.err})
			}
		}
	}
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.runJob(j)
			}
		}()
	}
	return m, nil
}

// Close stops accepting work and shuts the pool down gracefully: every
// active job is asked to halt at its next cycle boundary (writing a
// committed snapshot first, so it lands in a resumable journaled
// state), the queue is drained, and the journal handle is closed.
func (m *Manager) Close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		for _, j := range m.jobs {
			j.stop.Store(true)
		}
		close(m.queue)
	}
	m.mu.Unlock()
	m.wg.Wait()
	m.mu.Lock()
	if m.jf != nil {
		m.jf.Close()
		m.jf = nil
	}
	m.mu.Unlock()
}

// Submit validates sp, queues a new job and returns its view.
func (m *Manager) Submit(sp Spec) (JobView, error) {
	if err := sp.normalize(); err != nil {
		return JobView{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobView{}, fmt.Errorf("scenario: manager is shut down")
	}
	j := &job{id: len(m.jobs) + 1, spec: sp, state: StateQueued, target: sp.Cycles}
	select {
	case m.queue <- j:
	default:
		return JobView{}, fmt.Errorf("scenario: job queue is full")
	}
	m.jobs = append(m.jobs, j)
	m.logLocked(jrec{Op: opSubmit, ID: j.id, Spec: &j.spec, Target: j.target})
	return m.viewLocked(j), nil
}

// Resume requeues a terminal job for extra more cycles, restoring from
// its latest committed snapshot (or from scratch, for a job
// interrupted before its first commit — determinism makes the rerun
// continue the identical trajectory).
func (m *Manager) Resume(id, extra int) (JobView, error) {
	if extra < 1 {
		return JobView{}, fmt.Errorf("scenario: resume needs a positive cycle count")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.jobLocked(id)
	if err != nil {
		return JobView{}, err
	}
	if m.closed {
		return JobView{}, fmt.Errorf("scenario: manager is shut down")
	}
	if j.state == StateQueued || j.state == StateRunning {
		return JobView{}, fmt.Errorf("scenario: job %d is %s; only terminal jobs can be resumed", id, j.state)
	}
	if j.snapshot == "" && j.cyclesDone > 0 {
		return JobView{}, fmt.Errorf("scenario: job %d has no committed snapshot to resume from", id)
	}
	prevState, prevErr, prevTarget := j.state, j.err, j.target
	j.target = j.cyclesDone + extra
	j.resumeFrom = j.snapshot
	j.state = StateQueued
	j.err = ""
	j.stop.Store(false)
	select {
	case m.queue <- j:
	default:
		// Requeue failed: put the record back the way it was — the job's
		// terminal history must not be overwritten by a full queue.
		j.state, j.err, j.target = prevState, prevErr, prevTarget
		j.resumeFrom = ""
		return JobView{}, fmt.Errorf("scenario: job queue is full")
	}
	m.logLocked(jrec{Op: opState, ID: j.id, State: StateQueued, Target: j.target})
	return m.viewLocked(j), nil
}

// Stop requests a queued or running job to halt at the next cycle
// boundary (after writing a resumable snapshot).
func (m *Manager) Stop(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.jobLocked(id)
	if err != nil {
		return err
	}
	j.stop.Store(true)
	return nil
}

// Get returns the current view of job id.
func (m *Manager) Get(id int) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.jobLocked(id)
	if err != nil {
		return JobView{}, err
	}
	return m.viewLocked(j), nil
}

// List returns views of all jobs in submission order.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobView, len(m.jobs))
	for i, j := range m.jobs {
		out[i] = m.viewLocked(j)
	}
	return out
}

// changedSignal returns a channel that is closed at the next change of any
// job's state or diagnostics. A follower takes it before it reads, so a
// change between its read and its wait is not missed.
func (m *Manager) changedSignal() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.changed
}

// Diags returns a copy of job id's per-cycle diagnostics starting at
// cycle index from (0-based count of cycles to skip), the number of
// leading cycles dropped from retention (so a streamer asking below
// that point can detect the truncated prefix), and the job's current
// state (so streamers know when to stop following).
func (m *Manager) Diags(id, from int) ([]CycleDiag, int, string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.jobLocked(id)
	if err != nil {
		return nil, 0, "", err
	}
	if from < 0 {
		from = 0
	}
	idx := from - j.diagBase
	if idx < 0 {
		idx = 0
	}
	if idx > len(j.diags) {
		idx = len(j.diags)
	}
	out := make([]CycleDiag, len(j.diags)-idx)
	copy(out, j.diags[idx:])
	return out, j.diagBase, j.state, nil
}

func (m *Manager) jobLocked(id int) (*job, error) {
	if id < 1 || id > len(m.jobs) {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return m.jobs[id-1], nil
}

func (m *Manager) viewLocked(j *job) JobView {
	return JobView{
		ID: j.id, Spec: j.spec, State: j.state, Error: j.err,
		CyclesDone: j.cyclesDone, TargetCycles: j.target,
		Retries: j.retries, Snapshot: j.snapshot,
	}
}

func (m *Manager) jobDir(id int) string {
	return filepath.Join(m.root, fmt.Sprintf("job-%03d", id))
}

func (m *Manager) snapDir(j *job, cycle int) string {
	return filepath.Join(m.jobDir(j.id), fmt.Sprintf("cycle-%05d", cycle))
}

func (m *Manager) setError(j *job, err error) {
	m.mu.Lock()
	if j.err == "" {
		j.err = err.Error()
	}
	m.mu.Unlock()
}
