package cluster

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"laminar/internal/budget"
	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/telemetry"
)

func TestStatsCtrlCodecRoundTrip(t *testing.T) {
	blob := []byte(`{"denials":4}`)
	in := ctrlMsg{Type: msgStats, From: 2, Epoch: 5, Addr: "127.0.0.1:9", Blob: blob}
	out, err := parseCtrl(encodeCtrl(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != msgStats || out.From != 2 || out.Epoch != 5 || out.Addr != in.Addr {
		t.Fatalf("header round trip = %+v", out)
	}
	if !bytes.Equal(out.Blob, blob) {
		t.Fatalf("blob round trip = %q", out.Blob)
	}
	// The parsed blob must be a copy, not a window into the frame buffer.
	enc := encodeCtrl(in)
	out, _ = parseCtrl(enc)
	for i := range enc {
		enc[i] = 0xFF
	}
	if !bytes.Equal(out.Blob, blob) {
		t.Fatal("parsed blob aliases the frame buffer")
	}
}

func TestStatsCtrlCodecStrict(t *testing.T) {
	good := encodeCtrl(ctrlMsg{Type: msgStats, From: 1, Epoch: 1, Blob: []byte("{}")})
	cases := map[string][]byte{
		"trailing bytes":        append(append([]byte(nil), good...), 0xAA),
		"truncated blob header": good[:len(good)-3],
		"blob shorter than len": good[:len(good)-1],
	}
	for name, b := range cases {
		if _, err := parseCtrl(b); !errors.Is(err, ErrCtrlMalformed) {
			t.Errorf("%s: err = %v, want ErrCtrlMalformed", name, err)
		}
	}
	// A declared blob length past the cap is rejected before allocation.
	huge := encodeCtrl(ctrlMsg{Type: msgStats, From: 1, Epoch: 1,
		Blob: bytes.Repeat([]byte{'x'}, maxStatsBlob+1)})
	if _, err := parseCtrl(huge); !errors.Is(err, ErrCtrlMalformed) {
		t.Errorf("oversize blob: err = %v, want ErrCtrlMalformed", err)
	}
	// Non-stats messages still refuse trailing bytes (no blob arm).
	ping := encodeCtrl(ctrlMsg{Type: msgPing, From: 1, Epoch: 1})
	if _, err := parseCtrl(append(ping, 0x00)); !errors.Is(err, ErrCtrlMalformed) {
		t.Errorf("ping trailing bytes: err = %v, want ErrCtrlMalformed", err)
	}
}

// TestStatsBroadcastAggregates: stats broadcasts reach every peer on the
// tick period and merge into a cluster-wide snapshot with no stale
// slices while everyone is alive.
func TestStatsBroadcastAggregates(t *testing.T) {
	nodes := formCluster(t, 3)
	n1 := nodes[0]
	tickUntil(t, func() bool {
		return len(n1.cl.ClusterSnapshot().Nodes) >= 3
	}, nodes...)
	cs := n1.cl.ClusterSnapshot()
	if cs.StaleNodes != 0 {
		t.Fatalf("stale nodes = %d while all alive: %+v", cs.StaleNodes, cs.Nodes)
	}
	// The join protocol itself ran hooks on every node, so the merged
	// view must show more hook invocations than node 1 alone.
	var local uint64
	for _, n := range cs.Nodes {
		if n.Node == 1 {
			for _, v := range n.Snapshot.Hooks {
				local += v
			}
		}
	}
	var merged uint64
	for _, v := range cs.Merged.Hooks {
		merged += v
	}
	if merged <= local {
		t.Fatalf("merged hooks %d not larger than node 1's %d", merged, local)
	}
	if n1.rec.M.Extra.Get("cluster.stats.heard").Load() == 0 {
		t.Fatal("no stats broadcasts heard")
	}
}

// TestStatsStaleness: a dead peer's cached slice goes stale with the
// detector's verdict as the reason, and a slice from a superseded
// incarnation epoch is stale even while the peer is alive.
func TestStatsStaleness(t *testing.T) {
	nodes := formCluster(t, 3)
	n1, n2, n3 := nodes[0], nodes[1], nodes[2]
	tickUntil(t, func() bool {
		return len(n1.cl.ClusterSnapshot().Nodes) >= 3
	}, nodes...)

	// Epoch staleness: rewind the cached epoch below the membership's.
	n1.cl.mu.Lock()
	ps := n1.cl.stats[3]
	ps.epoch = 0
	n1.cl.stats[3] = ps
	n1.cl.mu.Unlock()
	found := false
	for _, n := range n1.cl.ClusterSnapshot().Nodes {
		if n.Node == 3 {
			found = true
			if !n.Stale || !strings.Contains(n.StaleWhy, "epoch") {
				t.Fatalf("superseded-epoch slice = %+v, want stale with epoch reason", n)
			}
		}
	}
	if !found {
		t.Fatal("node 3 slice missing")
	}

	// Liveness staleness: kill node 3 and wait for the detector.
	n3.cl.Close()
	tickUntil(t, func() bool { return n1.cl.State(3) != StateAlive }, n1, n2)
	for _, n := range n1.cl.ClusterSnapshot().Nodes {
		if n.Node == 3 && !n.Stale {
			t.Fatalf("dead peer's slice not stale: %+v", n)
		}
	}

	// The expvar surface publishes without panicking, idempotently.
	n1.cl.PublishExpvar()
	n1.cl.PublishExpvar()
}

// TestStatsDisabled: StatsEvery < 0 turns broadcasting off entirely.
func TestStatsDisabled(t *testing.T) {
	n1 := bootCluster(t, Config{ID: 1, StatsEvery: -1})
	if _, err := n1.cl.Join(); err != nil {
		t.Fatal(err)
	}
	n2 := bootCluster(t, Config{ID: 2, Seeds: []string{n1.cl.Addr()}, StatsEvery: -1})
	if _, err := n2.cl.Join(); err != nil {
		t.Fatal(err)
	}
	tickUntil(t, func() bool {
		return n1.cl.Converged(1, 2) && n2.cl.Converged(1, 2) && n1.cl.Joined() && n2.cl.Joined()
	}, n1, n2)
	for i := 0; i < 64; i++ {
		n1.cl.Tick()
		n2.cl.Tick()
	}
	if got := len(n1.cl.ClusterSnapshot().Nodes); got != 1 {
		t.Fatalf("snapshot has %d slices with stats disabled, want local only", got)
	}
	if n1.rec.M.Extra.Get("cluster.stats.heard").Load() != 0 {
		t.Fatal("stats heard despite StatsEvery < 0")
	}
}

// TestStatsBlobDecodeFailureIsProvenance: a syntactically valid control
// frame whose JSON blob does not decode is dropped with a LayerCluster
// denial event, never a crash or partial apply; a blob that decodes but
// carries keys this build no longer has is accepted and merged.
func TestStatsBlobDecodeFailureIsProvenance(t *testing.T) {
	n1 := bootCluster(t, Config{ID: 1})
	if _, err := n1.cl.Join(); err != nil {
		t.Fatal(err)
	}
	var denies int
	unsub := n1.rec.Subscribe(func(e telemetry.Event) {
		if e.Layer == telemetry.LayerCluster && e.Site == "cluster.stats" {
			denies++
		}
	})
	defer unsub()
	n1.cl.mu.Lock()
	n1.cl.onStats(ctrlMsg{Type: msgStats, From: 9, Epoch: 1, Blob: []byte("{not json")})
	n1.cl.mu.Unlock()
	if denies == 0 {
		t.Fatal("undecodable stats blob dropped without provenance")
	}
	if len(n1.cl.ClusterSnapshot().Nodes) != 1 {
		t.Fatal("undecodable stats blob was cached")
	}

	// A peer running a build from before the flow-cache counters were
	// dropped still sends flow_cache_* keys. Its blob must decode, be
	// cached and merge; the keys it alone knows are ignored.
	denies = 0
	old := []byte(`{"level":"deny","events":5,"denials":3,"fault_trips":0,` +
		`"flow_cache_hits":900,"flow_cache_misses":12,"flow_cache_evictions":1,` +
		`"intern_hits":40,"intern_misses":2,"verdict_cache_hits":7}`)
	n1.cl.mu.Lock()
	n1.cl.onStats(ctrlMsg{Type: msgStats, From: 9, Epoch: 1, Blob: old})
	n1.cl.mu.Unlock()
	if denies != 0 {
		t.Fatal("stats blob carrying flow_cache_* keys was refused")
	}
	cs := n1.cl.ClusterSnapshot()
	if len(cs.Nodes) != 2 {
		t.Fatalf("stats blob carrying flow_cache_* keys not cached: %d slices", len(cs.Nodes))
	}
	var peer telemetry.MetricsSnapshot
	for _, ns := range cs.Nodes {
		if ns.Node == 9 {
			peer = ns.Snapshot
		}
	}
	if peer.Denials != 3 || peer.InternHits != 40 || peer.VerdictCacheHits != 7 {
		t.Fatalf("decoded peer slice = %+v", peer)
	}
	if cs.Merged.Denials < 3 || cs.Merged.InternHits < 40 || cs.Merged.VerdictCacheHits < 7 {
		t.Fatalf("peer slice not merged: %+v", cs.Merged)
	}
}

// TestStatsCtrlCodecBudgetBlob: the optional second blob (ISSUE 10
// budget facts) round-trips, its absence is the valid pre-budget frame,
// and its framing is as strict as the stats blob's.
func TestStatsCtrlCodecBudgetBlob(t *testing.T) {
	led := budget.New()
	led.SetLimit(difc.Tag(7), 2, 100)
	led.Charge("send", difc.Tag(7), 2, 5)
	facts := led.ExportFacts()

	in := ctrlMsg{Type: msgStats, From: 2, Epoch: 5, Blob: []byte("{}"), Budget: facts}
	out, err := parseCtrl(encodeCtrl(in))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Budget, facts) {
		t.Fatalf("budget blob round trip = %x, want %x", out.Budget, facts)
	}
	dec, err := budget.DecodeFacts(out.Budget)
	if err != nil {
		t.Fatal(err)
	}
	if f := dec[budget.Key{Tag: 7, Peer: 2}]; f.Spent != 5 || f.Limit != 100 {
		t.Fatalf("decoded fact %+v", f)
	}

	// Absent second blob = pre-budget frame: parses, Budget nil.
	old, err := parseCtrl(encodeCtrl(ctrlMsg{Type: msgStats, From: 1, Epoch: 1, Blob: []byte("{}")}))
	if err != nil || old.Budget != nil {
		t.Fatalf("pre-budget frame: %v budget=%x", err, old.Budget)
	}

	// Strictness: trailing bytes after the budget blob, torn headers and
	// short bodies all reject the frame.
	good := encodeCtrl(in)
	for name, b := range map[string][]byte{
		"trailing bytes":     append(append([]byte(nil), good...), 0xAA),
		"torn budget header": good[:len(good)-len(facts)-2],
		"short budget body":  good[:len(good)-1],
	} {
		if _, err := parseCtrl(b); !errors.Is(err, ErrCtrlMalformed) {
			t.Errorf("%s: err = %v, want ErrCtrlMalformed", name, err)
		}
	}
}

// bootBudgetCluster is bootCluster with a flow-budget ledger installed
// on the kernel.
func bootBudgetCluster(t *testing.T, cfg Config, led *budget.Ledger) *testClusterNode {
	t.Helper()
	mod := lsm.New()
	rec := telemetry.NewRecorder()
	rec.SetLevel(telemetry.LevelDeny)
	k := kernel.New(kernel.WithSecurityModule(mod), kernel.WithTelemetry(rec),
		kernel.WithBudget(led))
	mod.InstallSystemIntegrity(k)
	mod.SetTelemetry(rec)
	user, err := k.Spawn(k.InitTask(), []kernel.Capability{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Kernel, cfg.Module, cfg.Recorder = k, mod, rec
	c := New(cfg)
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return &testClusterNode{k: k, mod: mod, user: user, rec: rec, cl: c}
}

// TestBudgetFactsGossip: facts ride the stats frame and semilattice-merge
// into every peer's ledger — the cluster-wide spend is monotone.
func TestBudgetFactsGossip(t *testing.T) {
	led1, led2 := budget.New(), budget.New()
	n1 := bootBudgetCluster(t, Config{ID: 1}, led1)
	if _, err := n1.cl.Join(); err != nil {
		t.Fatal(err)
	}
	n2 := bootBudgetCluster(t, Config{ID: 2, Seeds: []string{n1.cl.Addr()}}, led2)
	if _, err := n2.cl.Join(); err != nil {
		t.Fatal(err)
	}
	tickUntil(t, func() bool {
		return n1.cl.Converged(1, 2) && n2.cl.Converged(1, 2) && n1.cl.Joined() && n2.cl.Joined()
	}, n1, n2)

	led1.SetLimit(difc.Tag(40), 2, 100)
	led1.Charge("send", difc.Tag(40), 2, 30)

	tickUntil(t, func() bool {
		f, ok := led2.Fact(difc.Tag(40), 2)
		return ok && f.Spent >= 30 && f.Limit == 100
	}, n1, n2)

	// The receiver cached the per-peer provenance view too.
	if facts := n2.cl.PeerBudgetFacts(1); facts[budget.Key{Tag: 40, Peer: 2}].Spent < 30 {
		t.Fatalf("peer fact cache = %+v", facts)
	}

	// Spend on node 2 flows back: merged spent takes the max.
	led2.Charge("send", difc.Tag(40), 2, 50)
	tickUntil(t, func() bool {
		f, _ := led1.Fact(difc.Tag(40), 2)
		return f.Spent >= 80
	}, n1, n2)
}

// TestStatsEvictionOnDeath (ISSUE 10 leak fix): a dead peer's cached
// stats and budget facts survive, stale-labeled, for one merge cycle and
// are then evicted — long-running clusters stop growing their caches.
func TestStatsEvictionOnDeath(t *testing.T) {
	nodes := formCluster(t, 3)
	n1, n2, n3 := nodes[0], nodes[1], nodes[2]
	tickUntil(t, func() bool {
		s, _ := n1.cl.StatsCacheSize()
		return s >= 2
	}, nodes...)

	n3.cl.Close()
	tickUntil(t, func() bool { return n1.cl.State(3) == StateDead }, n1, n2)

	// Immediately after the dead verdict the slice is still cached and
	// stale-labeled — the postmortem window.
	foundStale := false
	for _, ns := range n1.cl.ClusterSnapshot().Nodes {
		if ns.Node == 3 && ns.Stale {
			foundStale = true
		}
	}
	if !foundStale {
		t.Fatal("dead peer's slice missing from the postmortem window")
	}

	// One merge cycle later it is gone.
	tickUntil(t, func() bool {
		n1.cl.mu.Lock()
		_, cached := n1.cl.stats[3]
		n1.cl.mu.Unlock()
		return !cached
	}, n1, n2)
	if n1.rec.M.Extra.Get("cluster.stats.evicted").Load() == 0 {
		t.Fatal("eviction not counted")
	}
	// Node 2 survives untouched in the cache.
	n1.cl.mu.Lock()
	_, n2cached := n1.cl.stats[2]
	n1.cl.mu.Unlock()
	if !n2cached {
		t.Fatal("alive peer evicted")
	}
}
