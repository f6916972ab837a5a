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
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rhea/internal/sim"
)

// fuzzShard is a small but fully featured shard: tree ids, leaves and
// all four fields, so every encoder branch contributes bytes to the
// corpus.
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
		if !bitsEqual(st.T, want.T) || !bitsEqual(st.U[1], want.U[1]) {
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

// encodeOldShard forges, correctly sealed, the shard layout an older
// format version wrote: what a snapshot directory left over from before
// a format change holds. Version 1 had no tree ids (a flags word in their
// place) and version 2 had them; both carried the pressure as a fifth
// field (here zeros) and a count of named scalars (here none).
func encodeOldShard(st *State, version uint32) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	le := binary.LittleEndian
	put := func(v any) { binary.Write(&buf, le, v) }
	put(version)
	if version == 1 {
		put(uint32(0)) // flags: no tree ids
	}
	put(st.Step)
	put(math.Float64bits(st.TimeNow))
	put(st.ConfigFP)
	put(uint64(len(st.Leaves)))
	put(uint64(len(st.T)))
	put(uint64(0)) // named scalars
	if version > 1 {
		put(st.Trees)
	}
	put(st.Leaves)
	for _, f := range [][]float64{st.T, st.U[0], st.U[1], st.U[2], make([]float64, len(st.T))} {
		put(f)
	}
	put(crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes()
}

// TestReadRejectsOldVersions pins the format breaks: a version-1 or
// version-2 snapshot must be refused with the version error on every rank
// — never mis-parsed under the current layout — whether the reader meets
// the old version in the manifest or, behind a manifest that claims the
// current version, in a shard; Peek refuses the old manifest too.
func TestReadRejectsOldVersions(t *testing.T) {
	const p = 3
	for _, version := range []uint32{1, 2} {
		want := fmt.Sprintf("format version %d", version)
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
				old := encodeOldShard(testState(rank), version)
				if _, err := decodeShard(old); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("decodeShard(version-%d shard) = %v, want the version error", version, err)
				}
				if err := os.WriteFile(filepath.Join(dir, m.Shards[rank].File), old, 0o666); err != nil {
					t.Fatal(err)
				}
				m.Shards[rank].Bytes = int64(len(old))
				m.Shards[rank].CRC32 = crc32.ChecksumIEEE(old)
			}
			if manifestToo {
				m.Version = int(version)
			}
			if mb, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, ManifestName), mb, 0o666); err != nil {
				t.Fatal(err)
			}
			expectReadError(t, p, dir, want)
			if _, err := Peek(dir); manifestToo && (err == nil || !strings.Contains(err.Error(), want)) {
				t.Errorf("Peek(version-%d manifest) = %v, want the version error", version, err)
			}
		}
	}
}

// FuzzDecodeShard feeds decodeShard arbitrary shard bodies, each sealed
// with its own CRC-32 so mutations reach the parser instead of stopping
// at the checksum. decodeShard must never panic, and every shard it
// accepts must re-encode to the same bytes: the format has one encoding
// per state. The seeds are a valid two-leaf shard, the same shard cut in
// half, and a version-2 shard.
func FuzzDecodeShard(f *testing.F) {
	shard, err := encodeShard(testState(0))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := decodeShard(shard); err != nil {
		f.Fatalf("seed shard does not decode: %v", err)
	}
	body := shard[:len(shard)-4]
	old := encodeOldShard(testState(0), 2)
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add(old[:len(old)-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		b := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		st, err := decodeShard(b)
		if err != nil {
			return
		}
		again, err := encodeShard(st)
		if err != nil {
			t.Fatalf("decodeShard accepted a state encodeShard refuses: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted shard re-encodes to different bytes:\n got %x\nwant %x", again, b)
		}
	})
}
