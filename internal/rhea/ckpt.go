package rhea

// Checkpoint/restart: Sim.Checkpoint serializes the state that cannot be
// recomputed — the forest leaves with their partition boundaries, the
// nodal T and U fields and the time-loop position — through
// internal/ckpt's sharded snapshot format, and Restore rebuilds a Sim
// from a snapshot without re-running the initial adaptation rounds or
// re-evaluating the initial temperature. Everything else a run needs
// (mesh, ghost plans, the Stokes solver, multigrid hierarchies) is
// deterministically derived state: it is rebuilt on demand from the
// restored leaves and fields, exactly as the uninterrupted run rebuilds
// it after each Adapt. The pressure is not state: every solve recomputes
// it from T and U. Neither are the Timings, which measure the process
// that accumulated them. Because the mesh extraction, solver setup and
// all reductions are deterministic (and rank-order bit-exact), a
// restored run continues the exact trajectory of the uninterrupted one:
// same Adapt decisions, same MINRES iteration counts, bit-identical
// diagnostics.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"rhea/internal/ckpt"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/sim"
)

// Fingerprint distills the checkpoint-relevant Config knobs — everything
// numeric or structural that shapes the trajectory: domain and forest
// topology, physics constants, adaptation bounds and budget, solver
// tolerances and structure — into 64 bits stored in every snapshot.
// Restore refuses a snapshot whose fingerprint disagrees with the
// Config it was handed, catching the "restored under a different
// scenario" class of mistakes early and loudly.
//
// Function-valued fields (InitialTemp, Visc, VelBC) cannot be
// fingerprinted; the caller must pass the same functions to Restore
// that New was given. InitAdapt/NoInitAdapt are deliberately excluded:
// they only shape the pre-checkpoint history, which the snapshot
// already embodies.
func (c Config) Fingerprint() uint64 {
	c = c.withDefaults()
	h := fnv.New64a()
	w := func(vs ...any) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	b := func(v bool) uint8 {
		if v {
			return 1
		}
		return 0
	}
	// 2 fills the slot of the snapshot format version, the value it held
	// when the fingerprint stopped reading it: the format refuses its
	// own old versions, and no pinned fingerprint moves.
	w(uint32(2))
	w(c.Dom.Box[0], c.Dom.Box[1], c.Dom.Box[2])
	// 0.0 fills the slot of the retired internal-heating rate, which was
	// always zero, so existing fingerprints and snapshots still match.
	w(c.Ra, 0.0, c.ViscMin, c.ViscMax)
	w(b(c.Shell), c.RInner, c.ROuter)
	w(c.BaseLevel, c.MinLevel, c.MaxLevel, c.TargetElems)
	w(int64(c.AdaptEvery), c.CFL, int64(c.Picard))
	w(c.MinresTol, int64(c.MinresMax))
	// Constants fill the slots of the retired solver choices, the values
	// every run of today's solver wrote: 1 for the operator (matrix-free)
	// and the velocity preconditioner (geometric multigrid), false for
	// LocalAMG. Those snapshots still restore, and one written with the
	// assembled operator or the algebraic multigrid, which would not
	// continue bit for bit, is refused.
	w(uint8(1), int64(1), int64(c.Order), uint8(0))
	w(slipCode(c.ShellSlip))
	if c.Conn != nil {
		w(int64(c.Conn.NumTrees()), int64(len(c.Conn.Verts)))
		for _, v := range c.Conn.Verts {
			w(v[0], v[1], v[2])
		}
		for _, tv := range c.Conn.TreeVerts {
			for _, vi := range tv {
				w(int64(vi))
			}
		}
	}
	return h.Sum64()
}

// slipCode maps the ShellSlip preset onto the stable integer stored in
// the fingerprint: 0 no-slip, 1 free-slip top, 2 free-slip both.
// Validate rejects any other value.
func slipCode(s string) int64 {
	switch s {
	case "top":
		return 1
	case "both":
		return 2
	}
	return 0
}

// Checkpoint writes a committed snapshot of the complete resumable state
// into dir (collective): per-rank shards with checksums plus a manifest
// (the commit point — see internal/ckpt). Any failure returns the same
// error on every rank and leaves no committed manifest behind. The
// natural checkpoint position is between cycles (after Adapt), but any
// point outside a collective call is valid: solver caches are derived
// state and are rebuilt identically on restore.
func (s *Sim) Checkpoint(dir string) error {
	trees, leaves := s.Forest.LeafKeys()
	st := &ckpt.State{
		Step:     int64(s.Step),
		TimeNow:  s.TimeNow,
		ConfigFP: s.Cfg.Fingerprint(),
		Trees:    trees,
		Leaves:   leaves,
		T:        s.T.Data,
		U:        [3][]float64{s.U[0].Data, s.U[1].Data, s.U[2].Data},
	}
	return ckpt.Write(s.Rank, dir, st)
}

// Restore rebuilds a Sim from the snapshot in dir (collective). cfg must
// describe the same scenario the snapshot was written under — the
// numeric knobs are checked against the stored fingerprint, and the
// function-valued fields (InitialTemp, Visc, VelBC) must be the same by
// contract. The communicator must have the same size as the writing one;
// leaves, partition boundaries and nodal fields are restored
// bit-exactly, and no initial adaptation rounds or initial-temperature
// evaluation run, so the restored Sim continues the interrupted
// trajectory exactly. Its Times start at zero: they measure this
// process.
func Restore(r *sim.Rank, cfg Config, dir string) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	st, err := ckpt.Read(r, dir)
	if err != nil {
		return nil, err
	}
	// This check derives from manifest-validated state and the local cfg
	// (the fingerprint covers the domain: Shell and the connectivity), so
	// every rank takes the same branch; no collective agreement is needed
	// before the collective rebuild below.
	if fp := cfg.Fingerprint(); st.ConfigFP != fp {
		return nil, fmt.Errorf("rhea: snapshot %s was written under a different configuration (fingerprint %016x, this config %016x)", dir, st.ConfigFP, fp)
	}

	s := &Sim{Cfg: cfg, Rank: r, P: new(la.Vec)}
	s.Forest, err = forest.FromKeys(r, cfg.conn(), st.Trees, st.Leaves)
	if err = r.AllreduceError(err); err != nil {
		return nil, fmt.Errorf("rhea: rebuilding partition from snapshot %s: %w", dir, err)
	}
	s.extract()

	// The freshly extracted mesh must agree with the serialized fields;
	// a mismatch means the snapshot predates a mesh-extraction change
	// and cannot be resumed bit-exactly.
	layout := s.Mesh.Layout()
	s.T, err = la.NewVecFromOwned(layout, st.T)
	if err == nil {
		for c := 0; c < 3 && err == nil; c++ {
			s.U[c], err = la.NewVecFromOwned(layout, st.U[c])
		}
	}
	if err = r.AllreduceError(err); err != nil {
		return nil, fmt.Errorf("rhea: snapshot %s node data does not match the extracted mesh (mesh extraction changed since it was written?): %w", dir, err)
	}

	s.Step = int(st.Step)
	s.TimeNow = st.TimeNow
	return s, nil
}
