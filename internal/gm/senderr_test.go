package gm

import (
	"errors"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// TestSendErrorsAreSentinels reaches every send-refusal path through
// both entry points, Host.Send and Port.Send, and checks each with
// errors.Is against its sentinel.
func TestSendErrorsAreSentinels(t *testing.T) {
	cases := []struct {
		name string
		// setup prepares the refusal on the rig; it returns the
		// sending port, already opened on Host1.
		setup    func(t *testing.T, r *rig, src *Host) *Port
		hostErr  error // nil: Host.Send has no such refusal
		wantPort error
	}{
		{
			name: "no send tokens",
			setup: func(t *testing.T, r *rig, src *Host) *Port {
				p := openPort(t, src, 1)
				if err := p.Send(r.nodes.Host2, 9, pattern(8)); err != nil {
					t.Fatal(err)
				}
				return p
			},
			wantPort: ErrNoSendTokens,
		},
		{
			name: "no route table",
			setup: func(t *testing.T, r *rig, src *Host) *Port {
				src.SetTable(nil)
				return openPort(t, src, 4)
			},
			hostErr:  ErrNoRouteTable,
			wantPort: ErrNoRouteTable,
		},
		{
			name: "peer dead",
			setup: func(t *testing.T, r *rig, src *Host) *Port {
				killPeer(t, r, src, r.hosts[r.nodes.Host2])
				return openPort(t, src, 4)
			},
			hostErr:  ErrPeerDead,
			wantPort: ErrPeerDead,
		},
		{
			name: "no route",
			setup: func(t *testing.T, r *rig, src *Host) *Port {
				topo, _ := topology.Testbed()
				avoid := (&routing.Avoid{}).AddHost(r.nodes.Host2)
				tbl, err := routing.BuildTableAvoiding(topo, topology.BuildUpDown(topo), routing.UpDownRouting, avoid)
				if err != nil {
					t.Fatal(err)
				}
				src.SetTable(tbl)
				return openPort(t, src, 4)
			},
			hostErr:  ErrNoRoute,
			wantPort: ErrNoRoute,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := resurrectRig(t)
			src := r.hosts[r.nodes.Host1]
			p := tc.setup(t, r, src)
			if err := p.Send(r.nodes.Host2, 9, pattern(8)); !errors.Is(err, tc.wantPort) {
				t.Errorf("Port.Send error = %v, want %v", err, tc.wantPort)
			}
			err := src.Send(r.nodes.Host2, pattern(8))
			if tc.hostErr == nil {
				if err != nil {
					t.Errorf("Host.Send error = %v, want nil", err)
				}
			} else if !errors.Is(err, tc.hostErr) {
				t.Errorf("Host.Send error = %v, want %v", err, tc.hostErr)
			}
		})
	}
}

func openPort(t *testing.T, h *Host, tokens int) *Port {
	t.Helper()
	p, err := h.OpenPort(2, tokens)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
