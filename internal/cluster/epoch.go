package cluster

import (
	"encoding/binary"
	"fmt"

	"laminar/internal/difc"
)

// Epoch-versioned cross-node label interning.
//
// Interned label ids are process-local (difc/intern.go): node 7's id 42
// names whatever node 7 interned 42nd. When labels cross the wire they
// travel in full canonical form, but the sender ALSO sends its interned
// ids, and the receiver binds (peer, peer-epoch, remote-id) → the labels
// carried on the wire in a remap table. Within one incarnation the
// binding is stable — the same remote id always resolves to the same lattice
// point, so repeated routed opens and future id-only references cost a
// map hit instead of a parse.
//
// The epoch is what keeps this sound across reconnects: a node that
// crashes and returns re-interns from scratch, so its old ids are
// meaningless. Its restart bumps the persisted incarnation epoch; every
// peer that observes the new epoch discards the old remap table, and
// any frame still carrying the stale epoch is rejected fail-closed with
// provenance — never resolved against bindings that no longer mean what
// the sender meant.

// remapTable is one peer's per-incarnation binding table.
type remapTable struct {
	epoch uint64
	byID  map[remapKey]difc.Labels
}

// remapKey is a remote (secrecy-id, integrity-id) pair.
type remapKey struct{ s, i uint64 }

// epochKey is the store key of this node's incarnation epoch.
const epochKey = "node/epoch"

// loadEpoch reads the persisted incarnation epoch, bumps it for this
// boot, and persists the new value through the checkpoint protocol. A
// torn epoch record quarantines to a fresh high epoch rather than risk
// reusing one (fail closed: peers must never mistake this incarnation
// for the last one).
func (c *Cluster) loadEpoch() uint64 {
	var prev uint64
	payload, state, ok := c.recoverRecord(epochKey)
	if ok && len(payload) == 8 {
		prev = binary.BigEndian.Uint64(payload)
	} else if state == "quarantined" {
		prev += 1 << 20 // unknowable history: jump far past any plausible epoch
		c.count("cluster.epoch.quarantined", 1)
	}
	next := prev + 1
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], next)
	// Epoch persistence must complete before the node speaks; recovery
	// writes bypass injection, so write directly.
	c.cfg.Store.Set(epochKey, sealRecord(buf[:]))
	return next
}

// resetRemap installs a fresh (empty) remap table for a peer's new
// incarnation, discarding every binding of the old epoch. locked.
func (c *Cluster) resetRemap(peer, epoch uint64) {
	c.remap[peer] = &remapTable{epoch: epoch, byID: make(map[remapKey]difc.Labels)}
	c.count("cluster.remap.reset", 1)
}

// checkEpoch validates a frame's (peer, epoch) against the incarnation
// on file. A NEWER epoch is a reincarnation and is accepted after the
// member table and remap reset; a STALE epoch is rejected fail-closed
// with provenance — the sender is a ghost of a dead incarnation. locked.
func (c *Cluster) checkEpoch(peer, epoch uint64, site string) bool {
	if peer == c.cfg.ID {
		return epoch == c.epoch
	}
	m, ok := c.members[peer]
	if !ok {
		return true // first contact; observe() will record the epoch
	}
	if epoch < m.epoch {
		c.count("cluster.epoch.stale", 1)
		c.denyEvent(site, "stale-epoch",
			fmt.Errorf("node %d frame carries epoch %d, current incarnation is %d", peer, epoch, m.epoch))
		return false
	}
	return true
}

// bindRemote records a peer's interned-id → labels binding for its
// current epoch and returns the labels. locked.
func (c *Cluster) bindRemote(peer, epoch, sID, iID uint64, labels difc.Labels) difc.Labels {
	rt, ok := c.remap[peer]
	if !ok || rt.epoch != epoch {
		rt = &remapTable{epoch: epoch, byID: make(map[remapKey]difc.Labels)}
		c.remap[peer] = rt
	}
	if sID != 0 || iID != 0 {
		rt.byID[remapKey{sID, iID}] = labels
	}
	return labels
}

// ResolveRemote resolves a peer's interned-id pair against the remap
// table for the given epoch. ok is false when the epoch is not current
// or the id was never bound — the caller must treat that as an unknown
// label and fail closed, never guess.
func (c *Cluster) ResolveRemote(peer, epoch, sID, iID uint64) (difc.Labels, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rt, ok := c.remap[peer]
	if !ok || rt.epoch != epoch {
		return difc.Labels{}, false
	}
	l, ok := rt.byID[remapKey{sID, iID}]
	return l, ok
}

// Epoch reports this node's current incarnation epoch.
func (c *Cluster) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}
