package core

import (
	"path/filepath"
	"slices"
	"testing"
	"time"

	"copernicus/internal/client"
	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/server"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// testHostConfig is a serving node the way `cpcserver -state-dir dir
// [-replicate | -standby-of peerAddr]` configures one, with the timers
// scaled down: a primary knows nothing about its standby, a standby only its
// primary's address.
func testHostConfig(dir, role, selfAddr, peerAddr string) HostConfig {
	return HostConfig{
		Registry: controller.DefaultRegistry(),
		Server:   server.Config{HeartbeatInterval: time.Second},
		Store:    store.Options{Dir: dir, FsyncInterval: 200 * time.Microsecond, SnapshotEvery: 48},
		Replication: &ReplicationConfig{
			Role:         role,
			PeerAddr:     peerAddr,
			SelfAddr:     selfAddr,
			Interval:     25 * time.Millisecond,
			LeaseTimeout: 350 * time.Millisecond,
		},
	}
}

// submitProject submits through a client.Client, as cpcctl does.
func submitProject(t *testing.T, cl *client.Client, name, controllerName string, params any) {
	t.Helper()
	blob, err := wire.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	req := client.SubmitRequest{Name: name, Controller: controllerName, Params: blob}
	if _, err := cl.Submit(ctxTimeout(t, 30*time.Second), req); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds, failing the test after timeout.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// hostNode is a Host with the overlay node it serves on.
type hostNode struct {
	*Host
	node *overlay.Node
}

// crash is what kill -9 leaves behind: the Host closed without a snapshot,
// then its node.
func (h hostNode) crash() { h.Close(); h.node.Close() }

// startHostNode starts a Host on a fresh node listening at addr on net.
func startHostNode(t *testing.T, net *overlay.MemNetwork, o *obs.Obs, seed uint64, addr string, cfg HostConfig) hostNode {
	t.Helper()
	node := overlay.NewNode(overlay.NewIdentityFromSeed(seed), overlay.NewTrustStore(), net.Transport())
	node.Obs = o
	if err := node.Listen(addr); err != nil {
		t.Fatal(err)
	}
	h, err := StartHost(node, cfg)
	if err != nil {
		node.Close()
		t.Fatalf("starting host %s: %v", addr, err)
	}
	return hostNode{h, node}
}

// memClient is a cpcctl-style client dialled to addr on net.
func memClient(t *testing.T, net *overlay.MemNetwork, seed uint64, addr string) *client.Client {
	t.Helper()
	node := overlay.NewNode(overlay.NewIdentityFromSeed(seed), overlay.NewTrustStore(), net.Transport())
	t.Cleanup(node.Close)
	id, err := node.ConnectPeer(addr)
	if err != nil {
		t.Fatal(err)
	}
	return client.New(node, client.Config{Server: id})
}

// TestHostResumesDurableRole holds the restart-after-fence guarantee of
// docs/PERSISTENCE.md on the assembly cpcserver runs: role, epoch and peer
// live in replica-meta.json and override the configuration, so a node
// restarted "by its old scripts" comes back in the role the protocol left it
// in, reaching its counterpart at the address the metadata recorded.
func TestHostResumesDurableRole(t *testing.T) {
	net, o, dir := overlay.NewMemNetwork(), obs.New(), t.TempDir()
	start := func(seed uint64, addr string, cfg HostConfig) hostNode {
		return startHostNode(t, net, o, seed, addr, cfg)
	}
	clientOf := func(seed uint64, addr string) *client.Client { return memClient(t, net, seed, addr) }

	cfgA := testHostConfig(filepath.Join(dir, "a"), store.RolePrimary, "a", "")
	cfgB := testHostConfig(filepath.Join(dir, "b"), store.RoleStandby, "b", "a")
	a := start(1, "a", cfgA)
	b := start(2, "b", cfgB)
	defer func() { a.crash(); b.crash() }()

	// No worker is attached: the projects only have to exist in the journal.
	bar, msm := controller.DefaultBARParams(), smallMSMParams()
	submitProject(t, clientOf(8, "a"), "first", controller.BARControllerName, &bar)
	waitFor(t, 30*time.Second, "standby to mirror the primary's journal", func() bool {
		last := a.Store().LastSeq()
		return last > 0 && a.Peer().AckedSeq() == last
	})

	a.crash()
	waitClosed(t, b.Peer().Promoted(), 30*time.Second, "standby promotion")
	if e := b.Peer().Epoch(); e != 2 {
		t.Fatalf("promoted standby epoch = %d, want 2", e)
	}

	// First restart, original primary configuration: the durable metadata
	// still says primary (epoch 1), so it serves and ships — and is fenced.
	a = start(1, "a", cfgA)
	waitClosed(t, a.Peer().Demoted(), 30*time.Second, "ex-primary demotion")
	if archives, _ := filepath.Glob(filepath.Join(dir, "a.fenced-e2")); len(archives) != 1 {
		t.Fatalf("fenced ex-primary's state directory was not archived as a.fenced-e2: %v", archives)
	}
	a.crash()

	// Second restart, same configuration: now the metadata says standby of
	// b. The new primary moved on in the meantime; the rejoin must catch up.
	submitProject(t, clientOf(9, "b"), "second", controller.MSMControllerName, &msm)
	a = start(1, "a", cfgA)
	if role, epoch := a.Peer().Role(), a.Peer().Epoch(); role != store.RoleStandby || epoch != 2 {
		t.Fatalf("fenced ex-primary restarted as %s at epoch %d, want standby at epoch 2", role, epoch)
	}
	if a.Store() != nil || len(a.Server().ProjectNames()) != 0 {
		t.Fatal("a standby must serve as a storeless relay")
	}
	waitFor(t, 30*time.Second, "restarted standby to reach the primary's journal end", func() bool {
		return a.Peer().AckedSeq() == b.Store().LastSeq()
	})
	if got := b.Peer().Role(); got != store.RolePrimary {
		t.Fatalf("two standbys after rejoin: b role = %q", got)
	}

	// Symmetrically, the promoted standby restarted with its original
	// standby configuration resumes as primary, serving the projects out of
	// its replica directory. (a is down so no lease can lapse meanwhile.)
	a.crash()
	b.crash()
	b = start(2, "b", cfgB)
	if role, epoch := b.Peer().Role(), b.Peer().Epoch(); role != store.RolePrimary || epoch != 2 {
		t.Fatalf("promoted standby restarted as %s at epoch %d, want primary at epoch 2", role, epoch)
	}
	names := b.Server().ProjectNames()
	slices.Sort(names)
	if !slices.Equal(names, []string{"first", "second"}) {
		t.Fatalf("restarted primary serves %v, want [first second]", names)
	}
}

// TestStandbyStartsBeforeItsPrimary: a fresh standby configured with only its
// primary's address starts while nothing listens there, waits without
// promoting (its lease arms on first contact), and joins and catches up once
// the primary comes up — the standby, not the Host, keeps dialling.
func TestStandbyStartsBeforeItsPrimary(t *testing.T) {
	net, o, dir := overlay.NewMemNetwork(), obs.New(), t.TempDir()
	cfgA := testHostConfig(filepath.Join(dir, "a"), store.RolePrimary, "a", "")
	cfgB := testHostConfig(filepath.Join(dir, "b"), store.RoleStandby, "b", "a")

	b := startHostNode(t, net, o, 2, "b", cfgB)
	defer b.crash()
	// Several lease timeouts with no primary: no contact, so no promotion.
	time.Sleep(4 * cfgB.Replication.LeaseTimeout)
	select {
	case <-b.Peer().Promoted():
		t.Fatal("standby promoted before it ever reached its primary")
	default:
	}
	if role, epoch := b.Peer().Role(), b.Peer().Epoch(); role != store.RoleStandby || epoch != 1 {
		t.Fatalf("primaryless standby is %s at epoch %d, want standby at epoch 1", role, epoch)
	}

	a := startHostNode(t, net, o, 1, "a", cfgA)
	defer a.crash()
	bar := controller.DefaultBARParams()
	submitProject(t, memClient(t, net, 8, "a"), "first", controller.BARControllerName, &bar)
	waitFor(t, 30*time.Second, "late-started primary's journal to reach the standby", func() bool {
		last := a.Store().LastSeq()
		return last > 0 && b.Peer().AckedSeq() == last
	})
	select {
	case <-b.Peer().Promoted():
		t.Fatal("standby promoted while its primary was serving")
	default:
	}
	if got := a.Peer().Role(); got != store.RolePrimary {
		t.Fatalf("primary role = %q after the standby joined", got)
	}
}
