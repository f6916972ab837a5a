package gmg

// Rank-subset agglomeration: once a level has too few elements per rank,
// its octants are repartitioned onto a sub-communicator of the first
// newP ranks and the hierarchy continues there, with ranks outside the
// subset idle below that gap. The repart plan built here is the gap's
// coupling: a permutation of the level's node values between the two
// partitions of the *same* global mesh (NodeForward carries residuals
// down, NodeBackward carries corrections up, ElemForward carries
// per-element viscosities down).
//
// Node identity across the two partitions cannot use global node
// numbers — the numbering is partition-dependent (each rank numbers its
// owned nodes by canonical key, and ownership moves with the leaves) —
// so the plan matches nodes by their canonical (tree, position) keys.
// Each sending rank computes the receiving owner locally: a node is
// owned by whichever rank owns the leaf containing its canonical
// incident finest cell, and that leaf's global index (partition-
// independent curve order) names the destination block.

import (
	"fmt"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// repart couples one level's mesh (on comm) with its repartitioned copy
// (on sub, the first newP ranks of comm). All of comm participates in
// every transfer; ranks outside sub have empty receive plans.
type repart struct {
	comm *sim.Comm // the pre-agglomeration level's communicator
	sub  *sim.Comm // the agglomerated communicator (comm ranks [0, newP))

	// Element plan: contiguous curve-order leaf ranges. eSendCnt[k]
	// leaves go to comm rank eSendTo[k]; eRecvCnt[k] arrive from
	// eRecvFrom[k] (ascending, concatenating to the shadow's leaf order).
	eSendTo, eRecvFrom []int
	eSendCnt, eRecvCnt []int
	nElems             int // local elements on the shadow side

	// Node plan: nSendIdx[k] lists the fine-side owned node indices
	// shipped to nSendTo[k]; nRecvIdx[k] the shadow-side owned node
	// indices filled from nRecvFrom[k], aligned with the sender's order.
	nSendTo, nRecvFrom []int
	nSendIdx, nRecvIdx [][]int32

	out, in []sim.Payload // permute's exchange scratch
}

// nodeKeyMsg carries canonical node keys between partitions.
type nodeKeyMsg struct {
	trees []int32
	pos   [][3]uint32
}

// pow2Floor returns the largest power of two <= n (n >= 1).
func pow2Floor(n int64) int64 {
	p := int64(1)
	for p*2 <= n {
		p *= 2
	}
	return p
}

// blockOwner returns which of newP contiguous even shares (remainders to
// the low shares, as in the tree partitioners) contains global index gi.
func blockOwner(total, newP, gi int64) int {
	q, rem := total/newP, total%newP
	cut := rem * (q + 1)
	if gi < cut {
		return int(gi / (q + 1))
	}
	return int(rem + (gi-cut)/q)
}

// blockRange returns block j's [lo, hi) of the even-share partition.
func blockRange(total, newP, j int64) (int64, int64) {
	q, rem := total/newP, total%newP
	lo := q*j + j
	if j >= rem {
		lo = q*j + rem
	}
	hi := lo + q
	if j < rem {
		hi++
	}
	return lo, hi
}

// buildRepart repartitions the level mesh onto the first newP ranks of
// its communicator (collective on m.Rank): it derives the
// sub-communicator, ships the leaves to their new owners, extracts the
// repartitioned mesh there, and builds the node/element plans. The
// returned mesh is nil on ranks outside the subset — they keep the plan
// (their send side) and go idle below this gap.
func buildRepart(m *mesh.Mesh, newP int) (*repart, *mesh.Mesh) {
	comm := m.Rank
	members := make([]int, newP)
	for i := range members {
		members[i] = i
	}
	sub := comm.Subset(members)
	rp := &repart{comm: comm, sub: sub}

	// Element partition: current offsets vs target blocks.
	ne := int64(len(m.Leaves))
	counts := comm.AllgatherInt64(ne)
	offs := make([]int64, len(counts)+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
	}
	E := offs[len(offs)-1]
	np := int64(newP)
	myOff := offs[comm.ID()]

	// Send side: split my contiguous leaf range over the target blocks.
	for gi := myOff; gi < myOff+ne; {
		j := blockOwner(E, np, gi)
		_, bhi := blockRange(E, np, int64(j))
		hi := myOff + ne
		if bhi < hi {
			hi = bhi
		}
		rp.eSendTo = append(rp.eSendTo, j)
		rp.eSendCnt = append(rp.eSendCnt, int(hi-gi))
		gi = hi
	}
	// Receive side: my block against the current rank ranges.
	if sub.Member() {
		blo, bhi := blockRange(E, np, int64(sub.ID()))
		rp.nElems = int(bhi - blo)
		for a := 0; a < comm.Size(); a++ {
			lo, hi := offs[a], offs[a+1]
			if lo < blo {
				lo = blo
			}
			if hi > bhi {
				hi = bhi
			}
			if lo < hi {
				rp.eRecvFrom = append(rp.eRecvFrom, a)
				rp.eRecvCnt = append(rp.eRecvCnt, int(hi-lo))
			}
		}
	}

	// Ship the leaves and extract the repartitioned mesh on the subset.
	var sm *mesh.Mesh
	payloads := make([]sim.Payload, len(rp.eSendTo))
	mine := forestLeaves(m)
	off := 0
	for k, cnt := range rp.eSendCnt {
		payloads[k] = sim.Payload{Data: mine[off : off+cnt : off+cnt], NBytes: 20 * cnt}
		off += cnt
	}
	in := make([]sim.Payload, len(rp.eRecvFrom))
	comm.NeighborExchange(rp.eSendTo, payloads, rp.eRecvFrom, in)
	if sub.Member() {
		leaves := make([]forest.Octant, 0, rp.nElems)
		for _, d := range in {
			leaves = append(leaves, d.Data.([]forest.Octant)...)
		}
		sm = mesh.Extract(forest.FromLeaves(sub, m.Conn, leaves), m.Geom)
	}

	// Node plan: group my owned nodes by their new owner (the block
	// containing their canonical incident leaf, which is local to me).
	destIdx := map[int][]int32{}
	for i, cell := range m.OwnedCell {
		li := m.FindLocalElement(cell.Tree, cell.O)
		if li < 0 {
			panic(fmt.Sprintf("gmg: owned node %d's canonical cell is not local", i))
		}
		j := blockOwner(E, np, myOff+int64(li))
		destIdx[j] = append(destIdx[j], int32(i))
	}
	var dests []int
	for j := range destIdx {
		dests = append(dests, j)
	}
	sortInts(dests)
	msgs := make([]any, len(dests))
	sizes := make([]int, len(dests))
	for k, j := range dests {
		idx := destIdx[j]
		msg := nodeKeyMsg{trees: make([]int32, len(idx)), pos: make([][3]uint32, len(idx))}
		for t, i := range idx {
			msg.trees[t] = m.OwnedTree[i]
			msg.pos[t] = m.OwnedPos[i]
		}
		msgs[k] = msg
		sizes[k] = 16 * len(idx)
		rp.nSendTo = append(rp.nSendTo, j)
		rp.nSendIdx = append(rp.nSendIdx, idx)
	}
	froms, datas := comm.AlltoallvSparse(dests, msgs, sizes)
	for k, from := range froms {
		msg := datas[k].(nodeKeyMsg)
		idx := make([]int32, len(msg.pos))
		for t := range msg.pos {
			li, ok := sm.LocalIndex(msg.trees[t], msg.pos[t])
			if !ok {
				panic(fmt.Sprintf("gmg: repartitioned mesh does not own node %v (tree %d)",
					msg.pos[t], msg.trees[t]))
			}
			idx[t] = li
		}
		rp.nRecvFrom = append(rp.nRecvFrom, from)
		rp.nRecvIdx = append(rp.nRecvIdx, idx)
	}
	return rp, sm
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// NodeForward permutes fine-partition node values into the shadow
// partition (collective on comm): dst[shadow index] = src[fine index],
// w values per node (node-major, as the V-cycle buffers are) in one
// message per neighbor. Pass dst nil on ranks outside the subset (they
// only send).
func (rp *repart) NodeForward(w int, src, dst []float64) {
	rp.permute(w, rp.nSendTo, rp.nSendIdx, src, rp.nRecvFrom, rp.nRecvIdx, dst)
}

// NodeBackward permutes shadow-partition node values back into the fine
// partition (collective on comm): the exact transpose of NodeForward.
// Pass src nil on ranks outside the subset (they only receive).
func (rp *repart) NodeBackward(w int, src, dst []float64) {
	rp.permute(w, rp.nRecvFrom, rp.nRecvIdx, src, rp.nSendTo, rp.nSendIdx, dst)
}

// permute ships src's node blocks listed in sendIdx[k] to rank to[k] and
// stores the blocks arriving from from[k] at recvIdx[k] of dst. Payloads
// come from the shared exchange pool and go back to it once copied out.
func (rp *repart) permute(w int, to []int, sendIdx [][]int32, src []float64, from []int, recvIdx [][]int32, dst []float64) {
	if n := max(len(rp.nSendTo), len(rp.nRecvFrom)); len(rp.out) < n {
		rp.out, rp.in = make([]sim.Payload, n), make([]sim.Payload, n)
	}
	out, in := rp.out[:len(to)], rp.in[:len(from)]
	for k, idx := range sendIdx {
		vals := la.GetBuf(w * len(idx))
		for t, i := range idx {
			copy(vals[w*t:w*t+w], src[w*int(i):w*int(i)+w])
		}
		out[k].F64 = vals
	}
	rp.comm.NeighborExchange(to, out, from, in)
	for k, d := range in {
		vals := d.F64
		for t, i := range recvIdx[k] {
			copy(dst[w*int(i):w*int(i)+w], vals[w*t:w*t+w])
		}
		la.PutBuf(vals)
	}
}

// ElemForward ships per-element values (viscosities) into the shadow
// partition's leaf order (collective on comm); the returned slice is
// empty on ranks outside the subset. Identical octants on both sides
// make this a pure permutation — no averaging.
func (rp *repart) ElemForward(eta []float64) []float64 {
	payloads := make([]sim.Payload, len(rp.eSendTo))
	off := 0
	for k, cnt := range rp.eSendCnt {
		payloads[k].F64 = eta[off : off+cnt : off+cnt]
		off += cnt
	}
	in := make([]sim.Payload, len(rp.eRecvFrom))
	rp.comm.NeighborExchange(rp.eSendTo, payloads, rp.eRecvFrom, in)
	out := make([]float64, 0, rp.nElems)
	for _, d := range in {
		out = append(out, d.F64...)
	}
	return out
}
