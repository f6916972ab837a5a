// Package ckpt implements versioned checkpoint/restart snapshots of a
// distributed simulation: the durable-run substrate the paper's
// long-lived petascale runs assume (and ASPECT treats as a production
// feature). A snapshot is a directory holding one binary shard per rank
// plus a JSON manifest:
//
//	<dir>/
//	  manifest.json    committed last; a directory without it is invalid
//	  shard-00000.bin  rank 0's leaves, fields and scalars (CRC-32 sealed)
//	  shard-00001.bin  ...
//
// Shards are written collectively: every rank writes its own shard (via
// a temp file + rename), the per-shard sizes and checksums travel one
// allgather to rank 0, and rank 0 writes the manifest — the commit
// point — only after every shard landed. A crash mid-write leaves a
// directory without a manifest, which Read rejects; a truncated or
// bit-flipped shard fails its length or CRC-32 check. All failures are
// agreed collectively (sim.Rank.AllreduceError), so every rank returns
// the same loud error instead of desynchronizing the collective
// sequence or restoring garbage state.
//
// Floating-point payloads are stored as raw little-endian IEEE-754 bit
// patterns, so a restored state is bit-identical to the checkpointed
// one — the property the restart-determinism tests pin.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"rhea/internal/sim"
)

// Version is the current checkpoint format version. Readers reject
// snapshots written by any other version. Version 3 holds the leaves and
// the temperature and velocity only; version 2 also carried the pressure
// and named timing scalars, and version 1 had a second, tree-less shard
// layout.
const Version = 3

// magic seals every shard file.
var magic = [8]byte{'R', 'H', 'E', 'A', 'C', 'K', 'P', 'T'}

// ManifestName is the snapshot's commit file.
const ManifestName = "manifest.json"

// State is one rank's share of a resumable simulation snapshot: the
// application layer (rhea) fills it from a running Sim and rebuilds the
// Sim from it. The forest partition is carried as leaf keys (see
// forest.LeafKeys) and the nodal fields as this rank's owned blocks.
type State struct {
	Step     int64
	TimeNow  float64
	ConfigFP uint64 // fingerprint of the writing Config (see rhea)

	Trees  []int32  // per-leaf tree id
	Leaves []uint64 // per-leaf Morton keys, forest-curve order

	T []float64 // owned temperature block
	U [3][]float64
}

// manifest is the snapshot's JSON commit record. Authoritative float
// values are stored as IEEE-754 bit patterns (TimeBits) so the manifest
// round-trips exactly; the human-readable Time field is informational.
type manifest struct {
	Format       string      `json:"format"`
	Version      int         `json:"version"`
	Ranks        int         `json:"ranks"`
	Step         int64       `json:"step"`
	Time         float64     `json:"time"`
	TimeBits     uint64      `json:"time_bits"`
	ConfigFP     string      `json:"config_fp"`
	GlobalLeaves int64       `json:"global_leaves"`
	GlobalNodes  int64       `json:"global_nodes"`
	Shards       []shardInfo `json:"shards"`
}

type shardInfo struct {
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	CRC32  uint32 `json:"crc32"`
	Leaves int64  `json:"leaves"`
	Nodes  int64  `json:"nodes"`
}

func shardName(rank int) string { return fmt.Sprintf("shard-%05d.bin", rank) }

// encodeShard serializes one rank's state. Layout (all little-endian):
//
//	magic[8] version:u32 step:i64 timeBits:u64 configFP:u64
//	nLeaves:u64 nNodes:u64
//	trees[nLeaves]:i32
//	leaves[nLeaves]:u64
//	T,U0,U1,U2: nNodes each, float64 bits
//	crc32(all preceding bytes):u32
func encodeShard(st *State) ([]byte, error) {
	nNodes := len(st.T)
	for c := 0; c < 3; c++ {
		if len(st.U[c]) != nNodes {
			return nil, fmt.Errorf("ckpt: U[%d] has %d entries, T has %d", c, len(st.U[c]), nNodes)
		}
	}
	if len(st.Trees) != len(st.Leaves) {
		return nil, fmt.Errorf("ckpt: %d tree ids for %d leaves", len(st.Trees), len(st.Leaves))
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	le := binary.LittleEndian
	var w [8]byte
	put32 := func(v uint32) { le.PutUint32(w[:4], v); buf.Write(w[:4]) }
	put64 := func(v uint64) { le.PutUint64(w[:], v); buf.Write(w[:]) }
	put32(Version)
	put64(uint64(st.Step))
	put64(math.Float64bits(st.TimeNow))
	put64(st.ConfigFP)
	put64(uint64(len(st.Leaves)))
	put64(uint64(nNodes))
	for _, t := range st.Trees {
		put32(uint32(t))
	}
	for _, k := range st.Leaves {
		put64(k)
	}
	for _, f := range [][]float64{st.T, st.U[0], st.U[1], st.U[2]} {
		for _, v := range f {
			put64(math.Float64bits(v))
		}
	}
	put32(crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes(), nil
}

// decodeShard is the inverse of encodeShard; every structural field is
// validated so truncated or corrupted bytes fail loudly.
func decodeShard(b []byte) (*State, error) {
	if len(b) < len(magic)+4 {
		return nil, fmt.Errorf("ckpt: shard truncated to %d bytes", len(b))
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("ckpt: shard checksum mismatch (stored %08x, computed %08x): file is corrupted or truncated", sum, got)
	}
	if !bytes.Equal(body[:8], magic[:]) {
		return nil, fmt.Errorf("ckpt: bad shard magic %q", body[:8])
	}
	le := binary.LittleEndian
	off := 8
	need := func(n int) error {
		if len(body)-off < n {
			return fmt.Errorf("ckpt: shard truncated at offset %d (need %d more bytes)", off, n)
		}
		return nil
	}
	get32 := func() uint32 { v := le.Uint32(body[off:]); off += 4; return v }
	get64 := func() uint64 { v := le.Uint64(body[off:]); off += 8; return v }
	if err := need(4 + 8*5); err != nil {
		return nil, err
	}
	if v := get32(); v != Version {
		return nil, fmt.Errorf("ckpt: shard format version %d, this reader handles %d", v, Version)
	}
	st := &State{}
	st.Step = int64(get64())
	st.TimeNow = math.Float64frombits(get64())
	st.ConfigFP = get64()
	nLeaves := get64()
	nNodes := get64()
	const maxCount = 1 << 40 // sanity bound against corrupted headers
	if nLeaves > maxCount || nNodes > maxCount {
		return nil, fmt.Errorf("ckpt: implausible shard header (leaves %d, nodes %d)", nLeaves, nNodes)
	}
	if err := need((4 + 8) * int(nLeaves)); err != nil {
		return nil, err
	}
	st.Trees = make([]int32, nLeaves)
	for i := range st.Trees {
		st.Trees[i] = int32(get32())
	}
	st.Leaves = make([]uint64, nLeaves)
	for i := range st.Leaves {
		st.Leaves[i] = get64()
	}
	if err := need(4 * 8 * int(nNodes)); err != nil {
		return nil, err
	}
	for _, f := range []*[]float64{&st.T, &st.U[0], &st.U[1], &st.U[2]} {
		*f = make([]float64, nNodes)
		for i := range *f {
			(*f)[i] = math.Float64frombits(get64())
		}
	}
	if off != len(body) {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after shard payload", len(body)-off)
	}
	return st, nil
}

// writeFileAtomic writes data to path via a temp file in the same
// directory plus rename, so concurrent readers never see a partial file.
func writeFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// Write stores a snapshot of the per-rank states into dir (collective).
// Every rank passes its own State; Step, TimeNow and ConfigFP must
// agree across ranks (they describe one global state). The manifest is
// written last, by rank 0, only after every shard is durably in place —
// it is the snapshot's commit point. On any failure every rank returns
// the same error and no manifest is committed.
func Write(r *sim.Rank, dir string, st *State) error {
	// Rank 0 creates the directory; everyone waits on the outcome.
	var err error
	if r.ID() == 0 {
		err = os.MkdirAll(dir, 0o777)
		// A stale manifest from a previous snapshot in the same directory
		// must not be able to commit new shards mixed with old ones:
		// remove it before any shard is (re)written.
		if err == nil {
			if rmErr := os.Remove(filepath.Join(dir, ManifestName)); rmErr != nil && !os.IsNotExist(rmErr) {
				err = rmErr
			}
		}
	}
	if err := r.AllreduceError(err); err != nil {
		return fmt.Errorf("ckpt: creating snapshot directory: %w", err)
	}

	shard, err := encodeShard(st)
	if err == nil {
		err = writeFileAtomic(filepath.Join(dir, shardName(r.ID())), shard)
	}
	if err := r.AllreduceError(err); err != nil {
		return fmt.Errorf("ckpt: writing shards: %w", err)
	}

	// Gather per-shard info (and the header scalars, to cross-check that
	// the ranks agree on what global state this snapshot describes).
	info := shardInfo{
		File:   shardName(r.ID()),
		Bytes:  int64(len(shard)),
		CRC32:  crc32.ChecksumIEEE(shard),
		Leaves: int64(len(st.Leaves)),
		Nodes:  int64(len(st.T)),
	}
	type meta struct {
		Info     shardInfo
		Step     int64
		TimeBits uint64
		ConfigFP uint64
	}
	mine := meta{info, st.Step, math.Float64bits(st.TimeNow), st.ConfigFP}
	all := r.Allgather(mine, 64)
	if r.ID() == 0 {
		m := manifest{
			Format:   "rhea-ckpt",
			Version:  Version,
			Ranks:    r.Size(),
			Step:     st.Step,
			Time:     st.TimeNow,
			TimeBits: math.Float64bits(st.TimeNow),
			ConfigFP: fmt.Sprintf("%016x", st.ConfigFP),
		}
		err = nil
		for rank, a := range all {
			mt := a.(meta)
			if mt.Step != mine.Step || mt.TimeBits != mine.TimeBits || mt.ConfigFP != mine.ConfigFP {
				err = fmt.Errorf("rank %d snapshot header disagrees with rank 0 (step %d vs %d)", rank, mt.Step, mine.Step)
				break
			}
			m.GlobalLeaves += mt.Info.Leaves
			m.GlobalNodes += mt.Info.Nodes
			m.Shards = append(m.Shards, mt.Info)
		}
		if err == nil {
			var b []byte
			b, err = json.MarshalIndent(m, "", "  ")
			if err == nil {
				err = writeFileAtomic(filepath.Join(dir, ManifestName), append(b, '\n'))
			}
		}
	}
	if err := r.AllreduceError(err); err != nil {
		return fmt.Errorf("ckpt: committing manifest: %w", err)
	}
	return nil
}

// Read loads this rank's share of the snapshot in dir (collective). It
// validates the manifest (format, version, rank count), the shard's
// size and CRC-32 against the manifest, and the shard header against
// the manifest's global record; any mismatch — a missing manifest, a
// snapshot written at a different rank count, a truncated or corrupted
// shard — returns the same descriptive error on every rank.
func Read(r *sim.Rank, dir string) (*State, error) {
	m, err := readManifest(dir, r.Size())
	if err := r.AllreduceError(err); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}

	st, err := readShard(dir, m, r.ID())
	if err := r.AllreduceError(err); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return st, nil
}

// Meta summarizes a committed snapshot's manifest without touching any
// shard data: enough for a caller to validate command-line flags (rank
// count, configuration fingerprint, resume step) against a snapshot
// before entering any collective call.
type Meta struct {
	Ranks    int
	Step     int64
	TimeNow  float64
	ConfigFP uint64
}

// Peek reads and validates the manifest in dir (local, non-collective;
// any rank count is accepted). Use it for preflight checks; Read remains
// the authoritative collective loader.
func Peek(dir string) (Meta, error) {
	m, err := readManifestAny(dir)
	if err != nil {
		return Meta{}, fmt.Errorf("ckpt: %w", err)
	}
	fp, err := strconv.ParseUint(m.ConfigFP, 16, 64)
	if err != nil {
		return Meta{}, fmt.Errorf("ckpt: manifest config_fp %q is not a 64-bit hex fingerprint: %w", m.ConfigFP, err)
	}
	return Meta{
		Ranks:    m.Ranks,
		Step:     m.Step,
		TimeNow:  math.Float64frombits(m.TimeBits),
		ConfigFP: fp,
	}, nil
}

func readManifest(dir string, ranks int) (*manifest, error) {
	m, err := readManifestAny(dir)
	if err != nil {
		return nil, err
	}
	if m.Ranks != ranks {
		return nil, fmt.Errorf("snapshot was written by %d ranks; restore requires the same communicator size (got %d)", m.Ranks, ranks)
	}
	return m, nil
}

func readManifestAny(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("no %s in %s: not a committed snapshot (interrupted checkpoint, or wrong path)", ManifestName, dir)
		}
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", ManifestName, err)
	}
	if m.Format != "rhea-ckpt" {
		return nil, fmt.Errorf("%s format %q is not a rhea checkpoint", ManifestName, m.Format)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("snapshot format version %d, this reader handles %d", m.Version, Version)
	}
	if len(m.Shards) != m.Ranks {
		return nil, fmt.Errorf("manifest lists %d shards for %d ranks", len(m.Shards), m.Ranks)
	}
	return &m, nil
}

func readShard(dir string, m *manifest, rank int) (*State, error) {
	info := m.Shards[rank]
	path := filepath.Join(dir, info.File)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if int64(len(b)) != info.Bytes {
		return nil, fmt.Errorf("%s is %d bytes, manifest records %d: file is truncated or overwritten", info.File, len(b), info.Bytes)
	}
	if sum := crc32.ChecksumIEEE(b); sum != info.CRC32 {
		return nil, fmt.Errorf("%s checksum %08x does not match manifest %08x: file is corrupted", info.File, sum, info.CRC32)
	}
	st, err := decodeShard(b)
	if err != nil {
		return nil, err
	}
	if st.Step != m.Step || math.Float64bits(st.TimeNow) != m.TimeBits {
		return nil, fmt.Errorf("%s header (step %d) disagrees with manifest (step %d)", info.File, st.Step, m.Step)
	}
	if fp := fmt.Sprintf("%016x", st.ConfigFP); fp != m.ConfigFP {
		return nil, fmt.Errorf("%s config fingerprint %s disagrees with manifest %s", info.File, fp, m.ConfigFP)
	}
	if int64(len(st.Leaves)) != info.Leaves || int64(len(st.T)) != info.Nodes {
		return nil, fmt.Errorf("%s payload counts disagree with manifest", info.File)
	}
	return st, nil
}
