package topology

import (
	"strings"
	"testing"
)

func TestBuilderBasics(t *testing.T) {
	tp := New()
	sw := tp.AddSwitch(4, "sw")
	h := tp.AddHost("h")
	id := tp.Connect(h, 0, sw, 2, LAN)

	if tp.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", tp.NumNodes())
	}
	if tp.Node(sw).Kind != KindSwitch || tp.Node(h).Kind != KindHost {
		t.Error("node kinds wrong")
	}
	l := tp.Link(id)
	if l.Other(sw) != h || l.Other(h) != sw {
		t.Error("Other() wrong")
	}
	if l.PortAt(sw) != 2 || l.PortAt(h) != 0 {
		t.Error("PortAt() wrong")
	}
	if tp.LinkAt(sw, 2) != l || tp.LinkAt(sw, 0) != nil {
		t.Error("LinkAt wrong")
	}
	if got, _ := tp.SwitchOf(h); got != sw {
		t.Error("SwitchOf wrong")
	}
	if _, ok := tp.SwitchOf(sw); ok {
		t.Error("SwitchOf(switch) should be false")
	}
}

func TestConnectPanics(t *testing.T) {
	check := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	tp := New()
	sw := tp.AddSwitch(2, "")
	sw2 := tp.AddSwitch(2, "")
	tp.Connect(sw, 0, sw2, 0, SAN)
	check("occupied port", func() { tp.Connect(sw, 0, sw2, 1, SAN) })
	check("self link", func() { tp.Connect(sw, 1, sw, 1, SAN) })
	check("bad port", func() { tp.Connect(sw, 7, sw2, 1, SAN) })
	check("bad node", func() { tp.Connect(NodeID(99), 0, sw2, 1, SAN) })
	check("zero-port switch", func() { tp.AddSwitch(0, "") })
}

func TestFreePortAndConnectAny(t *testing.T) {
	tp := New()
	a := tp.AddSwitch(2, "")
	b := tp.AddSwitch(2, "")
	if p, ok := tp.FreePort(a); !ok || p != 0 {
		t.Errorf("FreePort = %d,%v", p, ok)
	}
	tp.ConnectAny(a, b, SAN)
	tp.ConnectAny(a, b, SAN)
	if _, ok := tp.FreePort(a); ok {
		t.Error("FreePort on full switch should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("ConnectAny on full switch should panic")
		}
	}()
	tp.ConnectAny(a, b, SAN)
}

func TestHostsSwitchesNeighbors(t *testing.T) {
	tp, nodes := Testbed()
	sws := tp.Switches()
	if len(sws) != 2 {
		t.Fatalf("Switches = %v", sws)
	}
	hosts := tp.Hosts()
	if len(hosts) != 3 {
		t.Fatalf("Hosts = %v", hosts)
	}
	at1 := tp.HostsAt(nodes.Switch1)
	if len(at1) != 2 { // host1 and in-transit
		t.Errorf("HostsAt(sw1) = %v", at1)
	}
	at2 := tp.HostsAt(nodes.Switch2)
	if len(at2) != 1 || at2[0] != nodes.Host2 {
		t.Errorf("HostsAt(sw2) = %v", at2)
	}
	// switch1: 3 inter-switch + 2 hosts = 5 neighbours.
	if n := len(tp.Neighbors(nodes.Switch1)); n != 5 {
		t.Errorf("Neighbors(sw1) = %d, want 5", n)
	}
}

func TestValidate(t *testing.T) {
	tp, _ := Testbed()
	if err := tp.Validate(); err != nil {
		t.Errorf("Testbed invalid: %v", err)
	}
	// Uncabled host.
	bad := New()
	bad.AddSwitch(4, "")
	bad.AddHost("lonely")
	if err := bad.Validate(); err == nil {
		t.Error("uncabled host not caught")
	}
	// Disconnected network.
	disc := New()
	a := disc.AddSwitch(4, "")
	b := disc.AddSwitch(4, "")
	_ = a
	_ = b
	if err := disc.Validate(); err == nil {
		t.Error("disconnected network not caught")
	}
}

func TestConnectedTrivial(t *testing.T) {
	if !New().Connected() {
		t.Error("empty topology should be connected")
	}
}

func TestKindAndPortTypeStrings(t *testing.T) {
	if KindSwitch.String() != "switch" || KindHost.String() != "host" {
		t.Error("NodeKind strings")
	}
	if !strings.Contains(NodeKind(9).String(), "9") {
		t.Error("unknown NodeKind string")
	}
	if SAN.String() != "SAN" || LAN.String() != "LAN" {
		t.Error("PortType strings")
	}
	if Up.String() != "up" || Down.String() != "down" {
		t.Error("Direction strings")
	}
}

func TestLinkOtherPanics(t *testing.T) {
	tp := New()
	a := tp.AddSwitch(2, "")
	b := tp.AddSwitch(2, "")
	c := tp.AddSwitch(2, "")
	id := tp.Connect(a, 0, b, 0, SAN)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tp.Link(id).Other(c)
}

// TestLinkAtReturnsLiveLink pins that LinkAt hands out the topology's
// own link record, not a copy left behind when the link slice grew:
// both ends of every link must resolve to the same pointer as Link.
func TestLinkAtReturnsLiveLink(t *testing.T) {
	tb, _ := Testbed()
	gen, err := Generate(DefaultGenConfig(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	df, err := Dragonfly(DefaultDragonflyConfig(72))
	if err != nil {
		t.Fatal(err)
	}
	ft, err := FatTree(DefaultFatTreeConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	for name, topo := range map[string]*Topology{"testbed": tb, "generate-16": gen, "dragonfly-72": df, "fattree-16": ft} {
		for _, l := range topo.Links() {
			want := topo.Link(l.ID)
			if got := topo.LinkAt(l.A, l.APort); got != want {
				t.Errorf("%s: LinkAt(%d, %d) = %p, want link %d at %p", name, l.A, l.APort, got, l.ID, want)
			}
			if got := topo.LinkAt(l.B, l.BPort); got != want {
				t.Errorf("%s: LinkAt(%d, %d) = %p, want link %d at %p", name, l.B, l.BPort, got, l.ID, want)
			}
		}
	}
}

// TestDenseIndices checks HostIndex and SwitchIndex: each kind is
// numbered 0..n-1 in id order, and a node of the other kind (or out of
// range) has no index.
func TestDenseIndices(t *testing.T) {
	topo, err := Generate(DefaultGenConfig(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	hosts, switches := topo.Hosts(), topo.Switches()
	if topo.NumHosts() != len(hosts) {
		t.Fatalf("NumHosts = %d, want %d", topo.NumHosts(), len(hosts))
	}
	for i, h := range hosts {
		if got, ok := topo.HostIndex(h); !ok || got != i {
			t.Errorf("HostIndex(%d) = %d, %v; want %d", h, got, ok, i)
		}
		if _, ok := topo.SwitchIndex(h); ok {
			t.Errorf("SwitchIndex(host %d) ok", h)
		}
	}
	for i, sw := range switches {
		if got, ok := topo.SwitchIndex(sw); !ok || got != i {
			t.Errorf("SwitchIndex(%d) = %d, %v; want %d", sw, got, ok, i)
		}
		if _, ok := topo.HostIndex(sw); ok {
			t.Errorf("HostIndex(switch %d) ok", sw)
		}
	}
	for _, n := range []NodeID{-1, NodeID(topo.NumNodes())} {
		if _, ok := topo.HostIndex(n); ok {
			t.Errorf("HostIndex(%d) ok for a node out of range", n)
		}
	}
	// A mutation drops the cache.
	topo.AddHost("late")
	if topo.NumHosts() != len(hosts)+1 {
		t.Errorf("NumHosts after AddHost = %d, want %d", topo.NumHosts(), len(hosts)+1)
	}
}
