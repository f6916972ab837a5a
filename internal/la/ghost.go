package la

import (
	"slices"
	"sync"

	"rhea/internal/sim"
)

// f64bufs pools float64 send buffers for the neighbor exchanges. A
// sender Gets a buffer, fills it and hands it to the transport; the
// receiver copies the values out and Puts the buffer back. Because a
// buffer is only returned to the pool after its message has been
// consumed, reuse can never race with a lagging reader.
//
// A sync.Pool holds pointers, and the slice header that travels with a
// message is not one, so each pooled buffer sits in a *[]float64 holder.
// The holders cycle between two pools — GetBuf empties one and parks it
// in bufHolders, PutBuf picks one up there — so that in steady state
// neither call allocates.
var f64bufs, bufHolders sync.Pool

// GetBuf returns a pooled float64 buffer of length n (shared send-buffer
// pool for neighbor exchanges; see PutBuf).
func GetBuf(n int) []float64 {
	h, _ := f64bufs.Get().(*[]float64)
	if h == nil {
		return make([]float64, n)
	}
	b := *h
	*h = nil
	bufHolders.Put(h)
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// PutBuf returns a buffer obtained from GetBuf (or received from a
// neighbor exchange) to the pool once its contents have been consumed.
func PutBuf(b []float64) {
	if cap(b) == 0 {
		return
	}
	h, _ := bufHolders.Get().(*[]float64)
	if h == nil {
		h = new([]float64)
	}
	*h = b[:0]
	f64bufs.Put(h)
}

// GhostExchange is a reusable neighbor-exchange plan over a fixed set of
// off-rank global indices of a layout. It generalizes the ghost update
// baked into Mat.Apply: matrix-free operators gather remote nodal blocks
// before their element loops and scatter-add remote row contributions
// back afterwards, using the same plan in both directions.
//
// Indices carry fixed-size blocks of `block` float64 components (the
// Stokes operator uses block = 4: three velocity components plus
// pressure per node). Owned data lives in caller-managed slices of
// length Local()*block; ghost data in slices of length NumGhosts()*block,
// indexed by ghost slot in the order of Ghosts().
//
// The plan persists the sparse neighborhood discovered at construction:
// Gather and ScatterAdd exchange messages only with actual neighbor
// ranks (sim.NeighborExchange — no handshake, no O(P) message fan-out)
// and draw their send buffers from a shared pool.
type GhostExchange struct {
	layout *Layout
	block  int
	ghosts []int64

	// Persisted neighbor plan: owners holds the ranks this rank requests
	// ghosts from, servers the ranks requesting data from this rank, both
	// ascending. reqSlot[k] lists the ghost slots served by owners[k];
	// sendIdx[k] lists the local block indices this rank serves to
	// servers[k], in the order that rank requested them (the two sides of
	// the plan line up). Gather sends to servers and receives from owners;
	// ScatterAdd is the transpose.
	owners  []int
	reqSlot [][]int32
	servers []int
	sendIdx [][]int32

	// out and in are the per-plan exchange scratch (see scratch).
	out, in []sim.Payload
}

// NewGhostExchange builds the exchange plan for the given off-rank global
// indices (collective). want may contain duplicates and need not be
// sorted; it must not contain indices owned by this rank.
func NewGhostExchange(l *Layout, want []int64, block int) *GhostExchange {
	ghosts := slices.Clone(want)
	slices.Sort(ghosts)
	ghosts = slices.Compact(ghosts)
	for _, gid := range ghosts {
		if l.Owns(gid) {
			panic("la: NewGhostExchange wants an owned index")
		}
	}

	// Ascending ghosts are grouped by owner, owners ascending: each owner
	// is asked for one run of consecutive slots, by global index.
	var owners []int
	var reqSlot [][]int32
	var reqs []any
	var nb []int
	for s := 0; s < len(ghosts); {
		o := l.OwnerOf(ghosts[s])
		e := s
		var slots []int32
		for ; e < len(ghosts) && ghosts[e] < l.Offsets[o+1]; e++ {
			slots = append(slots, int32(e))
		}
		owners = append(owners, o)
		reqSlot = append(reqSlot, slots)
		reqs = append(reqs, ghosts[s:e])
		nb = append(nb, 8*(e-s))
		s = e
	}
	servers, datas := l.rank.AlltoallvSparse(owners, reqs, nb)
	sendIdx := make([][]int32, len(servers))
	for i, d := range datas {
		asked := d.([]int64)
		idx := make([]int32, len(asked))
		for k, gid := range asked {
			idx[k] = int32(gid - l.Start())
		}
		sendIdx[i] = idx
	}
	return NewGhostExchangeAgreed(l, ghosts, owners, reqSlot, servers, sendIdx, block)
}

// NewGhostExchangeAgreed wraps tables the two sides of every pair have
// already agreed on into a plan, without communication: ghosts are the
// off-rank global indices in slot order, reqSlot[k] the ghost slots that
// owners[k] serves, and sendIdx[k] the local indices servers[k] expects,
// in the order of that rank's reqSlot entry for this rank. An exchange
// that numbers nodes by asking their owners (mesh.Extract) has these
// tables in hand when it finishes; NewGhostExchange negotiates them.
func NewGhostExchangeAgreed(l *Layout, ghosts []int64, owners []int, reqSlot [][]int32, servers []int, sendIdx [][]int32, block int) *GhostExchange {
	return &GhostExchange{layout: l, block: block, ghosts: ghosts,
		owners: owners, reqSlot: reqSlot, servers: servers, sendIdx: sendIdx}
}

// NumGhosts returns the number of distinct off-rank indices in the plan.
func (g *GhostExchange) NumGhosts() int { return len(g.ghosts) }

// Ghosts returns the off-rank global indices in ghost-slot order.
func (g *GhostExchange) Ghosts() []int64 { return g.ghosts }

// NumNeighbors returns the number of distinct ranks this plan exchanges
// messages with in either direction.
func (g *GhostExchange) NumNeighbors() int {
	seen := make(map[int]struct{}, len(g.owners)+len(g.servers))
	for _, o := range g.owners {
		seen[o] = struct{}{}
	}
	for _, s := range g.servers {
		seen[s] = struct{}{}
	}
	return len(seen)
}

// Gather fills ghost (length NumGhosts()*block) with the remote blocks,
// served from every owner's owned slice (length Local()*block)
// (collective).
func (g *GhostExchange) Gather(owned, ghost []float64) {
	g.GatherBlock(g.block, owned, ghost)
}

// GatherBlock is Gather with the block width chosen per call: owned and
// ghost carry `block` values per index instead of the plan's own width.
// The index tables do not depend on the width, so one plan (one
// construction handshake) serves every width — the multigrid level
// operators gather one value per node for a scalar cycle and three for
// the blocked velocity cycle through the same block-1 plan, in one
// message per neighbor either way (collective).
func (g *GhostExchange) GatherBlock(block int, owned, ghost []float64) {
	out, in := g.scratch(len(g.servers), len(g.owners))
	for k, idx := range g.sendIdx {
		buf := GetBuf(len(idx) * block)
		for n, li := range idx {
			copy(buf[n*block:(n+1)*block], owned[int(li)*block:(int(li)+1)*block])
		}
		out[k].F64 = buf
	}
	g.layout.rank.NeighborExchange(g.servers, out, g.owners, in)
	for k, slots := range g.reqSlot {
		buf := in[k].F64
		for n, s := range slots {
			copy(ghost[int(s)*block:(int(s)+1)*block], buf[n*block:(n+1)*block])
		}
		PutBuf(buf)
	}
}

// GatherMulti gathers several same-layout fields in one exchange round
// (collective): owned[f] and ghost[f] are field f's owned and ghost
// slices, shaped exactly as in Gather. One message carries all fields,
// so the collective cost is that of a single Gather regardless of the
// field count — the time loop uses this to fetch temperature and the
// three velocity components together when re-evaluating the viscosity.
func (g *GhostExchange) GatherMulti(owned, ghost [][]float64) {
	nf := len(owned)
	out, in := g.scratch(len(g.servers), len(g.owners))
	for k, idx := range g.sendIdx {
		buf := GetBuf(len(idx) * g.block * nf)
		pos := 0
		for _, li := range idx {
			for f := 0; f < nf; f++ {
				pos += copy(buf[pos:], owned[f][int(li)*g.block:(int(li)+1)*g.block])
			}
		}
		out[k].F64 = buf
	}
	g.layout.rank.NeighborExchange(g.servers, out, g.owners, in)
	for k, slots := range g.reqSlot {
		buf := in[k].F64
		pos := 0
		for _, s := range slots {
			for f := 0; f < nf; f++ {
				pos += copy(ghost[f][int(s)*g.block:(int(s)+1)*g.block], buf[pos:pos+g.block])
			}
		}
		PutBuf(buf)
	}
}

// ScatterAdd routes ghost-slot contributions back to their owners and
// adds them into the owners' owned slices — the transpose of Gather
// (collective).
func (g *GhostExchange) ScatterAdd(ghost, owned []float64) {
	g.ScatterAddBlock(g.block, ghost, owned)
}

// ScatterAddBlock is ScatterAdd with the block width chosen per call —
// the transpose of GatherBlock at the same width (collective).
func (g *GhostExchange) ScatterAddBlock(block int, ghost, owned []float64) {
	out, in := g.scratch(len(g.owners), len(g.servers))
	for k, slots := range g.reqSlot {
		buf := GetBuf(len(slots) * block)
		for n, s := range slots {
			copy(buf[n*block:(n+1)*block], ghost[int(s)*block:(int(s)+1)*block])
		}
		out[k].F64 = buf
	}
	g.layout.rank.NeighborExchange(g.owners, out, g.servers, in)
	for k, idx := range g.sendIdx {
		buf := in[k].F64
		for n, li := range idx {
			base := int(li) * block
			for c := 0; c < block; c++ {
				owned[base+c] += buf[n*block+c]
			}
		}
		PutBuf(buf)
	}
}

// scratch returns the plan's tables of nOut outgoing and nIn incoming
// payloads. sim.NeighborExchange reads the one and fills the other before
// it returns and keeps no reference, and a plan is only ever driven by
// its own rank, so one pair per plan serves every exchange.
func (g *GhostExchange) scratch(nOut, nIn int) (out, in []sim.Payload) {
	if n := max(len(g.owners), len(g.servers)); len(g.out) < n {
		g.out, g.in = make([]sim.Payload, n), make([]sim.Payload, n)
	}
	return g.out[:nOut], g.in[:nIn]
}
