package ckpt

// Exhaustive corruption tests for the shard format: a snapshot reader
// that silently restores wrong state is worse than one that loses the
// snapshot, so decodeShard must reject EVERY single-bit flip and EVERY
// truncation of a shard — not just the handful of spot-checks in
// ckpt_test.go — and the collective Read path must turn any such damage
// into the same loud error on every rank. CRC-32 guarantees detection
// of all single-bit errors and all burst errors up to 32 bits; these
// tests pin that the implementation actually puts the checksum in
// front of every other use of the bytes.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rhea/internal/sim"
)

// fuzzShard is a small but fully featured shard: tree ids, leaves, all
// five fields and extra scalars, so every encoder branch contributes
// bytes to the corpus.
func fuzzShard(t *testing.T) []byte {
	t.Helper()
	b, err := encodeShard(testState(0))
	if err != nil {
		t.Fatalf("encodeShard: %v", err)
	}
	return b
}

// TestShardDecodeEveryBitFlip flips every bit of every byte of a shard,
// one at a time, and asserts decodeShard rejects each mutant. A single
// surviving mutant would mean a corrupted checkpoint can restore as
// silently wrong simulation state.
func TestShardDecodeEveryBitFlip(t *testing.T) {
	shard := fuzzShard(t)
	if _, err := decodeShard(shard); err != nil {
		t.Fatalf("pristine shard does not decode: %v", err)
	}
	mut := make([]byte, len(shard))
	for off := range shard {
		for bit := 0; bit < 8; bit++ {
			copy(mut, shard)
			mut[off] ^= 1 << bit
			if _, err := decodeShard(mut); err == nil {
				t.Fatalf("bit %d of byte %d/%d flipped and decodeShard accepted the shard", bit, off, len(shard))
			}
		}
	}
}

// TestShardDecodeEveryTruncation decodes every proper prefix of a shard
// (every truncation point, byte-granular) plus trailing-garbage
// extensions, asserting each is rejected.
func TestShardDecodeEveryTruncation(t *testing.T) {
	shard := fuzzShard(t)
	for n := 0; n < len(shard); n++ {
		if _, err := decodeShard(shard[:n]); err == nil {
			t.Fatalf("shard truncated to %d/%d bytes decoded without error", n, len(shard))
		}
	}
	for _, extra := range []int{1, 4, 64} {
		grown := append(append([]byte(nil), shard...), make([]byte, extra)...)
		if _, err := decodeShard(grown); err == nil {
			t.Fatalf("shard grown by %d trailing bytes decoded without error", extra)
		}
	}
}

// TestReadCorruptShardEveryOffsetCollective damages the on-disk shard
// of rank 1 at every byte offset in turn (cycling through the bit
// positions) and asserts the collective Read fails on BOTH ranks with
// the same error — the undamaged rank must not proceed with restored
// state while its peer failed.
func TestReadCorruptShardEveryOffsetCollective(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	sim.Run(2, func(r *sim.Rank) {
		if err := Write(r, dir, testState(r.ID())); err != nil {
			t.Errorf("Write: %v", err)
		}
	})
	path := filepath.Join(dir, "shard-00001.bin")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if testing.Short() {
		step = 17
	}
	mut := make([]byte, len(orig))
	for off := 0; off < len(orig); off += step {
		copy(mut, orig)
		mut[off] ^= 1 << (off % 8)
		if err := os.WriteFile(path, mut, 0o666); err != nil {
			t.Fatal(err)
		}
		var errs [2]error
		sim.Run(2, func(r *sim.Rank) {
			_, err := Read(r, dir)
			errs[r.ID()] = err
		})
		if errs[0] == nil || errs[1] == nil {
			t.Fatalf("offset %d: Read returned errors [%v, %v]; corruption must fail on every rank", off, errs[0], errs[1])
		}
		if errs[0].Error() != errs[1].Error() {
			t.Fatalf("offset %d: ranks disagree on the failure: %q vs %q", off, errs[0], errs[1])
		}
	}
	// Truncations of the on-disk shard, every length (sampled in -short).
	for n := 0; n < len(orig); n += step {
		if err := os.WriteFile(path, orig[:n], 0o666); err != nil {
			t.Fatal(err)
		}
		var errs [2]error
		sim.Run(2, func(r *sim.Rank) {
			_, err := Read(r, dir)
			errs[r.ID()] = err
		})
		if errs[0] == nil || errs[1] == nil {
			t.Fatalf("truncation to %d bytes: Read returned errors [%v, %v]", n, errs[0], errs[1])
		}
	}
	// Restore the pristine shard: the snapshot must read again, with the
	// awkward float payloads bit-identical (no state leaked from the
	// corrupted attempts).
	if err := os.WriteFile(path, orig, 0o666); err != nil {
		t.Fatal(err)
	}
	sim.Run(2, func(r *sim.Rank) {
		st, err := Read(r, dir)
		if err != nil {
			t.Errorf("rank %d: pristine snapshot no longer reads: %v", r.ID(), err)
			return
		}
		want := testState(r.ID())
		if st.Step != want.Step || math.Float64bits(st.TimeNow) != math.Float64bits(want.TimeNow) {
			t.Errorf("rank %d: restored header differs", r.ID())
		}
		if !bitsEqual(st.T, want.T) || !bitsEqual(st.P, want.P) {
			t.Errorf("rank %d: restored fields are not bit-identical", r.ID())
		}
	})
}

// TestPeek pins the non-collective manifest preflight: it must report
// the snapshot's rank count, step, time and fingerprint without caring
// about the caller's communicator size, and must reject an uncommitted
// directory.
func TestPeek(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	sim.Run(3, func(r *sim.Rank) {
		if err := Write(r, dir, testState(r.ID())); err != nil {
			t.Errorf("Write: %v", err)
		}
	})
	meta, err := Peek(dir)
	if err != nil {
		t.Fatalf("Peek: %v", err)
	}
	want := testState(0)
	if meta.Ranks != 3 || meta.Step != want.Step ||
		math.Float64bits(meta.TimeNow) != math.Float64bits(want.TimeNow) ||
		meta.ConfigFP != want.ConfigFP {
		t.Errorf("Peek = %+v, want ranks 3 step %d fp %016x", meta, want.Step, want.ConfigFP)
	}
	if _, err := Peek(t.TempDir()); err == nil {
		t.Error("Peek accepted a directory without a manifest")
	}
}

// encodeShardV1 forges the tree-less shard layout format version 1 wrote
// for box runs (magic, version 1, flags 0, header, leaves, fields, no
// extras), correctly sealed — what a snapshot directory left over from
// before the one-layout format holds.
func encodeShardV1(st *State) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	le := binary.LittleEndian
	put := func(v any) { binary.Write(&buf, le, v) }
	put(uint32(1)) // version
	put(uint32(0)) // flags: no tree ids
	put(st.Step)
	put(math.Float64bits(st.TimeNow))
	put(st.ConfigFP)
	put(uint64(len(st.Leaves)))
	put(uint64(len(st.T)))
	put(uint64(0))
	put(st.Leaves)
	for _, f := range [][]float64{st.T, st.U[0], st.U[1], st.U[2], st.P} {
		put(f)
	}
	put(crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes()
}

// TestReadRejectsVersion1 pins the format break: a version-1 snapshot
// must be refused with the version error on every rank — never
// mis-parsed under the version-2 layout — whether the reader meets the
// old version in the manifest or, behind a manifest that claims the
// current version, in a shard.
func TestReadRejectsVersion1(t *testing.T) {
	const p = 3
	for _, manifestToo := range []bool{true, false} {
		dir := filepath.Join(t.TempDir(), "snap")
		sim.Run(p, func(r *sim.Rank) {
			if err := Write(r, dir, testState(r.ID())); err != nil {
				t.Errorf("Write: %v", err)
			}
		})
		mb, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		var m manifest
		if err := json.Unmarshal(mb, &m); err != nil {
			t.Fatal(err)
		}
		// Only rank 1's shard is old when the manifest is current: the
		// other ranks must still hear about it.
		for rank := range m.Shards {
			if !manifestToo && rank != 1 {
				continue
			}
			old := encodeShardV1(testState(rank))
			if _, err := decodeShard(old); err == nil || !strings.Contains(err.Error(), "format version 1") {
				t.Fatalf("decodeShard(version-1 shard) = %v, want the version error", err)
			}
			if err := os.WriteFile(filepath.Join(dir, m.Shards[rank].File), old, 0o666); err != nil {
				t.Fatal(err)
			}
			m.Shards[rank].Bytes = int64(len(old))
			m.Shards[rank].CRC32 = crc32.ChecksumIEEE(old)
		}
		if manifestToo {
			m.Version = 1
		}
		if mb, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), mb, 0o666); err != nil {
			t.Fatal(err)
		}
		expectReadError(t, p, dir, "format version 1")
		if _, err := Peek(dir); manifestToo && (err == nil || !strings.Contains(err.Error(), "format version 1")) {
			t.Errorf("Peek(version-1 manifest) = %v, want the version error", err)
		}
	}
}
