// Package cluster is the Laminar label plane lifted to a cluster: node
// membership with heartbeat failure detection, incarnation epochs that
// keep cross-node label interning sound across crashes, long-running
// cluster operations (join, drain, tag-authority rebalance) as
// crash-resumable persistent changes, and multi-hop routing whose every
// hop re-runs the full LSM flow check.
//
// The plane is built ON the trusted transport (internal/netlabel), not
// beside it: membership and join negotiation ride Ctrl frames, routed
// opens ride OpenRouted frames, and all DIFC policy still lives in each
// node's own kernel — the cluster layer can lose messages (which the
// paper's unreliable-channel semantics already permit) but can never
// cause an unchecked flow.
package cluster

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"laminar/internal/faultinject"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/netlabel"
	"laminar/internal/telemetry"
)

// Defaults for the logical-tick failure detector.
const (
	defaultSuspectAfter   = 5
	defaultDeadAfter      = 12
	defaultHeartbeatEvery = 2
)

// Config wires a Cluster to its kernel and durable store.
type Config struct {
	// ID is this node's stable cluster-wide identity.
	ID uint64
	// Kernel and Module are the local Laminar kernel and its LSM; all
	// enforcement (endpoint creates, relay Recv/Send) runs through them.
	Kernel *kernel.Kernel
	Module *lsm.Module
	// Recorder receives LayerCluster provenance (membership transitions,
	// epoch rejections, change lifecycle) and counters.
	Recorder *telemetry.Recorder
	// Injector is the deterministic fault injector, consulted at the
	// cluster.ckpt.* sites (and passed down to the transport's net.*
	// sites) so the chaos oracle can tear checkpoints and kill links.
	Injector faultinject.Injector
	// Store is the durable keyspace for this node's incarnation epoch and
	// change records; it must survive restarts (the harness keeps it
	// across simulated kills). Nil gets a fresh MemStore — fine for a
	// node that never crashes, useless for one that does.
	Store Store
	// Seeds are peer listen addresses to contact when joining.
	Seeds []string

	// SuspectAfter and DeadAfter are silence thresholds in logical ticks;
	// HeartbeatEvery is the ping period. Zero values take defaults.
	SuspectAfter   int
	DeadAfter      int
	HeartbeatEvery int

	// Batching passes through to the transport.
	Batching bool

	// Tracing passes through to the transport: opened and routed channels
	// carry a TraceCtx so explain-route can reconstruct multi-hop flows.
	Tracing bool

	// StatsEvery is the period, in logical ticks, at which a joined node
	// broadcasts its metrics snapshot to the alive membership. Zero takes
	// the default; negative disables the broadcast.
	StatsEvery int
}

// defaultStatsEvery spaces stats broadcasts out to every 8th tick —
// frequent enough for tick-driven tests, cheap enough to ride along.
const defaultStatsEvery = 8

// Cluster is one node's view of the label plane.
type Cluster struct {
	cfg  Config
	node *netlabel.Node
	rec  *telemetry.Recorder

	mu      sync.Mutex
	now     uint64 // logical tick counter; all timing derives from it
	beats   uint64 // heartbeats sent; paces the dead-member probes
	epoch   uint64 // this incarnation's persisted epoch
	members map[uint64]*member
	remap   map[uint64]*remapTable

	changes    map[uint64]*Change
	nextChange uint64
	stepDefs    map[string][]stepDef
	stats       map[uint64]peerStats  // latest snapshot heard per peer
	budgetFacts map[uint64]peerBudget // latest budget facts heard per peer

	relays    []*relay
	ranges    []authRange
	draining  bool
	joined    bool
	joinAcked bool
	relayIdle int // consecutive ticks with no relay traffic (drain gate)
	closed    bool
}

// New builds a node of the label plane. The incarnation epoch is loaded
// (and bumped) from the store before the node can speak, and persisted
// change records are resumed through the crash-recovery pass — a node
// killed mid-join comes back knowing exactly which step was in flight.
func New(cfg Config) *Cluster {
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = defaultSuspectAfter
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		cfg.DeadAfter = cfg.SuspectAfter + defaultDeadAfter - defaultSuspectAfter
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = defaultHeartbeatEvery
	}
	if cfg.StatsEvery == 0 {
		cfg.StatsEvery = defaultStatsEvery
	}
	c := &Cluster{
		cfg:     cfg,
		rec:     cfg.Recorder,
		members: make(map[uint64]*member),
		remap:   make(map[uint64]*remapTable),
		changes: make(map[uint64]*Change),
	}
	c.node = netlabel.NewNode(netlabel.Config{
		Kernel:   cfg.Kernel,
		Module:   cfg.Module,
		Recorder: cfg.Recorder,
		Injector: cfg.Injector,
		NodeID:   cfg.ID,
		Batching: cfg.Batching,
		Tracing:  cfg.Tracing,
		Control:  c.onControl,
		Routed:   c.onRouted,
	})
	c.registerSteps()
	c.mu.Lock()
	c.epoch = c.loadEpoch()
	c.loadRanges()
	c.resumeChanges()
	c.mu.Unlock()
	if c.rec != nil {
		// NewNode stamped (id, 0); now that the persisted incarnation
		// epoch is loaded, every event and minted trace carries it.
		c.rec.SetNodeIdentity(cfg.ID, c.epoch)
	}
	return c
}

// Listen binds the node's transport listener.
func (c *Cluster) Listen(addr string) error { return c.node.Listen(addr) }

// Addr reports the bound listen address.
func (c *Cluster) Addr() string { return c.node.Addr() }

// Node exposes the underlying transport (Accept, direct Open) for
// endpoints that live on this node.
func (c *Cluster) Node() *netlabel.Node { return c.node }

// Joined reports whether this node's join change has activated.
func (c *Cluster) Joined() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.joined
}

// Join submits the persistent join change: announce to seeds, wait for
// an ack, sync membership, activate. Crash-resumable at every step.
func (c *Cluster) Join() (*Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submit("join")
}

// Drain submits the persistent drain change: stop routed intake, flush
// the relays, announce departure.
func (c *Cluster) Drain() (*Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submit("drain")
}

// Rebalance submits the persistent tag-authority rebalance change:
// persist the new range assignment, then announce it.
func (c *Cluster) Rebalance(start, owner uint64) (*Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submit("rebalance", start, owner)
}

// AuthorityFor reports the node that owns tag-authority for value v: the
// owner of the highest range start ≤ v. With no covering range the local
// node is its own authority (the pre-rebalance default).
func (c *Cluster) AuthorityFor(v uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	owner := c.cfg.ID
	var best uint64
	found := false
	for _, r := range c.ranges {
		if r.Start <= v && (!found || r.Start >= best) {
			best, owner, found = r.Start, r.Owner, true
		}
	}
	return owner
}

// Tick advances the plane one logical step: pump the transport (frames
// in), settle the change engine (at most one transition per change),
// heartbeat on period, advance the failure detector, pump the relays
// (per-hop checked forwarding), and pump the transport again (frames
// out). Returns the amount of work done; zero means quiescent.
func (c *Cluster) Tick() int {
	work := c.node.Pump()
	c.mu.Lock()
	c.now++
	work += c.settle()
	if c.joined && c.now%uint64(c.cfg.HeartbeatEvery) == 0 {
		// Only an activated member heartbeats: a node that has not joined
		// (or has departed via drain) goes silent, and silence is exactly
		// what its peers' detectors are built to classify.
		c.heartbeat() // unlocks around the sends
	}
	if c.joined && c.cfg.StatsEvery > 0 && c.now%uint64(c.cfg.StatsEvery) == 0 {
		c.broadcastStats() // unlocks around the sends
	}
	c.detect()
	c.sweepStats()
	c.mu.Unlock()
	moved := c.pumpRelays()
	c.mu.Lock()
	if moved == 0 {
		c.relayIdle++
	} else {
		c.relayIdle = 0
	}
	c.mu.Unlock()
	work += moved
	work += c.node.Pump()
	return work
}

// Close shuts the transport down.
func (c *Cluster) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.node.Close()
}

// onControl is the netlabel Ctrl handler: parse strictly, gate on the
// sender's incarnation epoch, then apply. Runs inside Pump, without the
// cluster lock held on entry.
func (c *Cluster) onControl(peerID uint64, payload []byte) {
	if c.rec != nil && c.rec.Active() {
		t0 := time.Now()
		defer func() { c.rec.M.ObserveLayer(telemetry.LayerCluster, time.Since(t0)) }()
	}
	m, err := parseCtrl(payload)
	if err != nil {
		c.denyEvent("cluster.ctrl", "parse", err)
		return
	}
	c.mu.Lock()
	if !c.checkEpoch(m.From, m.Epoch, "cluster.ctrl") {
		c.mu.Unlock()
		return
	}
	var reply []byte
	var replyTo string
	switch m.Type {
	case msgPing:
		c.observe(m.From, m.Epoch, m.Addr)
		c.gossip(m.Members)
	case msgJoinReq:
		c.observe(m.From, m.Epoch, m.Addr)
		reply = encodeCtrl(ctrlMsg{Type: msgJoinAck, From: c.cfg.ID, Epoch: c.epoch,
			Addr: c.node.Addr(), Members: c.memberWireLocked(), Ranges: c.ranges})
		replyTo = m.Addr
	case msgJoinAck:
		c.observe(m.From, m.Epoch, m.Addr)
		c.gossip(m.Members)
		c.installRanges(m.Ranges)
		c.joinAcked = true
	case msgLeave:
		if mem, ok := c.members[m.From]; ok && mem.state != StateDead {
			mem.state = StateDead
			c.memberEvent(m.From, m.Epoch, "dead", "announced orderly departure")
		}
	case msgAuthority:
		c.observe(m.From, m.Epoch, m.Addr)
		c.installRanges(m.Ranges)
	case msgStats:
		c.observe(m.From, m.Epoch, m.Addr)
		c.onStats(m)
	}
	c.mu.Unlock()
	if reply != nil && replyTo != "" {
		c.node.SendControl(replyTo, reply)
	}
}

// installRanges replaces the tag-authority table and persists it; a torn
// write is counted and retried implicitly by the next broadcast. locked.
func (c *Cluster) installRanges(ranges []authRange) {
	if ranges == nil {
		return
	}
	c.ranges = append([]authRange(nil), ranges...)
	if err := c.checkpoint("auth/ranges", encodeRangesPayload(c.ranges)); err != nil {
		c.count("cluster.ckpt.torn", 1)
	}
}

// loadRanges recovers the persisted authority table at boot. locked.
func (c *Cluster) loadRanges() {
	payload, state, ok := c.recoverRecord("auth/ranges")
	if !ok {
		if state == "quarantined" {
			// Unknowable authority assignment: fail closed to the default
			// (every node its own authority) until the next broadcast.
			c.denyEvent("cluster.ckpt", "recover",
				fmt.Errorf("authority table torn beyond recovery; reset to defaults"))
		}
		return
	}
	ranges, err := parseRangesPayload(payload)
	if err != nil {
		c.denyEvent("cluster.ckpt", "decode", err)
		return
	}
	c.ranges = ranges
}

// encodeRangesPayload serializes the authority table for checkpointing.
func encodeRangesPayload(ranges []authRange) []byte {
	buf := binary.BigEndian.AppendUint16(nil, uint16(len(ranges)))
	for _, r := range ranges {
		buf = binary.BigEndian.AppendUint64(buf, r.Start)
		buf = binary.BigEndian.AppendUint64(buf, r.Owner)
	}
	return buf
}

// parseRangesPayload decodes a checkpointed authority table.
func parseRangesPayload(b []byte) ([]authRange, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: truncated range table", ErrCtrlMalformed)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) != 16*n {
		return nil, fmt.Errorf("%w: range table count %d with %d bytes", ErrCtrlMalformed, n, len(b))
	}
	var out []authRange
	for i := 0; i < n; i++ {
		var r authRange
		r.Start, b, _ = parseU64(b)
		r.Owner, b, _ = parseU64(b)
		out = append(out, r)
	}
	return out, nil
}

// registerSteps installs the step definitions for every change kind.
// Steps are idempotent by contract: a step re-run after a crash must
// converge to the same state it was building the first time.
func (c *Cluster) registerSteps() {
	c.stepDefs = map[string][]stepDef{
		"join": {
			{name: "announce", do: (*Cluster).stepAnnounce, undo: (*Cluster).undoAnnounce},
			{name: "sync-members", do: (*Cluster).stepSyncMembers},
			{name: "activate", do: (*Cluster).stepActivate, undo: (*Cluster).undoActivate},
		},
		"drain": {
			{name: "stop-intake", do: (*Cluster).stepStopIntake, undo: (*Cluster).undoStopIntake},
			{name: "flush-relays", do: (*Cluster).stepFlushRelays},
			{name: "depart", do: (*Cluster).stepDepart},
		},
		"rebalance": {
			{name: "persist-ranges", do: (*Cluster).stepPersistRanges, undo: (*Cluster).undoPersistRanges},
			{name: "announce-ranges", do: (*Cluster).stepAnnounceRanges},
		},
	}
}

// --- join steps ---

// stepAnnounce sends a JoinReq to every seed and completes once any peer
// acks. Re-running after a crash just re-announces — the request is
// idempotent on the receiving side (observe + reply).
func (c *Cluster) stepAnnounce(ch *Change) (bool, error) {
	if len(c.cfg.Seeds) == 0 {
		return true, nil // solo bootstrap: nothing to announce to
	}
	if c.joinAcked {
		return true, nil
	}
	msg := encodeCtrl(ctrlMsg{Type: msgJoinReq, From: c.cfg.ID, Epoch: c.epoch,
		Addr: c.node.Addr()})
	seeds := append([]string(nil), c.cfg.Seeds...)
	self := c.node.Addr()
	c.mu.Unlock()
	for _, addr := range seeds {
		if addr == self {
			continue
		}
		c.node.SendControl(addr, msg)
	}
	c.mu.Lock()
	return c.joinAcked, nil
}

// undoAnnounce tells the seeds this node is not coming after all.
func (c *Cluster) undoAnnounce(ch *Change) {
	msg := encodeCtrl(ctrlMsg{Type: msgLeave, From: c.cfg.ID, Epoch: c.epoch,
		Addr: c.node.Addr()})
	seeds := append([]string(nil), c.cfg.Seeds...)
	c.mu.Unlock()
	for _, addr := range seeds {
		c.node.SendControl(addr, msg)
	}
	c.mu.Lock()
}

// stepSyncMembers completes once the ack's gossip has landed: the member
// table knows at least one peer (or there were never any seeds).
func (c *Cluster) stepSyncMembers(ch *Change) (bool, error) {
	return len(c.cfg.Seeds) == 0 || len(c.members) > 0, nil
}

// stepActivate flips the node to joined: it now serves routed opens and
// is gossiped alive by its peers.
func (c *Cluster) stepActivate(ch *Change) (bool, error) {
	c.joined = true
	return true, nil
}

// undoActivate reverses activation.
func (c *Cluster) undoActivate(ch *Change) { c.joined = false }

// --- drain steps ---

// stepStopIntake stops accepting new routed work (onRouted drops).
func (c *Cluster) stepStopIntake(ch *Change) (bool, error) {
	c.draining = true
	return true, nil
}

// undoStopIntake reopens intake if the drain rolls back.
func (c *Cluster) undoStopIntake(ch *Change) { c.draining = false }

// stepFlushRelays completes after a full tick moved no relay bytes: the
// in-flight forwarding obligations are met (or their flows died, which
// the unreliable channel permits).
func (c *Cluster) stepFlushRelays(ch *Change) (bool, error) {
	return c.relayIdle >= 1, nil
}

// stepDepart announces the orderly departure to every non-dead member.
func (c *Cluster) stepDepart(ch *Change) (bool, error) {
	msg := encodeCtrl(ctrlMsg{Type: msgLeave, From: c.cfg.ID, Epoch: c.epoch,
		Addr: c.node.Addr()})
	targets := make([]string, 0, len(c.members))
	for _, m := range c.members {
		if m.state != StateDead {
			targets = append(targets, m.addr)
		}
	}
	c.joined = false
	c.mu.Unlock()
	for _, addr := range targets {
		c.node.SendControl(addr, msg)
	}
	c.mu.Lock()
	return true, nil
}

// --- rebalance steps ---

// stepPersistRanges installs the new assignment locally and checkpoints
// it BEFORE any announcement: a node that crashes here resumes with the
// assignment it was about to broadcast, never the other way round.
func (c *Cluster) stepPersistRanges(ch *Change) (bool, error) {
	if len(ch.Args) != 2 {
		return false, fmt.Errorf("rebalance change %d has %d args, want 2", ch.ID, len(ch.Args))
	}
	start, owner := ch.Args[0], ch.Args[1]
	replaced := false
	for i, r := range c.ranges {
		if r.Start == start {
			c.ranges[i].Owner = owner
			replaced = true
		}
	}
	if !replaced {
		c.ranges = append(c.ranges, authRange{Start: start, Owner: owner})
	}
	if err := c.checkpoint("auth/ranges", encodeRangesPayload(c.ranges)); err != nil {
		return false, ErrRetry // torn table checkpoint: retry next settle
	}
	return true, nil
}

// undoPersistRanges removes the assignment again.
func (c *Cluster) undoPersistRanges(ch *Change) {
	if len(ch.Args) != 2 {
		return
	}
	start := ch.Args[0]
	out := c.ranges[:0]
	for _, r := range c.ranges {
		if r.Start != start {
			out = append(out, r)
		}
	}
	c.ranges = out
	if err := c.checkpoint("auth/ranges", encodeRangesPayload(c.ranges)); err != nil {
		c.count("cluster.ckpt.torn", 1)
	}
}

// stepAnnounceRanges broadcasts the authority table to every alive peer.
func (c *Cluster) stepAnnounceRanges(ch *Change) (bool, error) {
	msg := encodeCtrl(ctrlMsg{Type: msgAuthority, From: c.cfg.ID, Epoch: c.epoch,
		Addr: c.node.Addr(), Ranges: append([]authRange(nil), c.ranges...)})
	targets := make([]string, 0, len(c.members))
	for _, m := range c.members {
		if m.state == StateAlive {
			targets = append(targets, m.addr)
		}
	}
	c.mu.Unlock()
	for _, addr := range targets {
		c.node.SendControl(addr, msg)
	}
	c.mu.Lock()
	return true, nil
}

// InjectStaleFrame feeds the control plane a synthetic ping from the
// given node id and incarnation epoch, as if a ghost of that incarnation
// were still on the wire. Chaos harnesses and oracles use it to verify
// stale-epoch rejection deterministically, without racing a real
// reconnect for the ghost's frames.
func (c *Cluster) InjectStaleFrame(from, epoch uint64) {
	c.onControl(0, encodeCtrl(ctrlMsg{Type: msgPing, From: from, Epoch: epoch,
		Addr: "ghost:0"}))
}

// --- telemetry helpers ---

// denyEvent records a cluster-layer rejection with provenance.
func (c *Cluster) denyEvent(site, op string, err error) {
	if c.rec == nil || !c.rec.Active() {
		return
	}
	c.rec.EmitDeny(telemetry.LayerCluster, site, op, 0, 0, err)
}

// count bumps a free-form cluster metric.
func (c *Cluster) count(name string, delta int) {
	if c.rec == nil || !c.rec.Active() {
		return
	}
	c.rec.M.Extra.Get(name).Add(0, uint64(delta))
}
