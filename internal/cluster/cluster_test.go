package cluster

import (
	"testing"
	"time"

	"padres/internal/core"
	"padres/internal/overlay"
	"padres/internal/predicate"
)

func TestDefaults(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	if len(c.Brokers()) != 14 {
		t.Errorf("default topology has %d brokers", len(c.Brokers()))
	}
	if c.Broker("b1") == nil || c.Container("b1") == nil {
		t.Error("broker/container accessors nil")
	}
	if c.Broker("nope") != nil {
		t.Error("unknown broker should be nil")
	}
	if c.Container("b1").Protocol() != core.ProtocolReconfig {
		t.Errorf("default protocol = %v", c.Container("b1").Protocol())
	}
	if c.Registry() == nil || c.Network() == nil || c.Topology() == nil {
		t.Error("accessors nil")
	}
}

func TestDisconnectedTopologyRejected(t *testing.T) {
	top := overlay.New()
	_ = top.AddBroker("b1")
	_ = top.AddBroker("b2")
	if _, err := New(Options{Topology: top}); err == nil {
		t.Fatal("disconnected topology accepted")
	}
}

func TestNewClientUnknownBroker(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	if _, err := c.NewClient("x", "b99"); err == nil {
		t.Fatal("client at unknown broker accepted")
	}
}

func TestEndToEndFlow(t *testing.T) {
	c, err := New(Options{Covering: true, Protocol: core.ProtocolEndToEnd})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()

	pub, err := c.NewClient("p", "b1")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.NewClient("s", "b14")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Advertise(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(predicate.Event{"x": predicate.Number(1)}); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sub.QueueLen() != 1 {
		t.Errorf("delivered %d notifications, want 1", sub.QueueLen())
	}
	if c.Registry().TotalMessages() == 0 {
		t.Error("no traffic recorded")
	}
}

func TestRestartBrokerErrors(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	if err := c.RestartBroker("b99"); err == nil {
		t.Error("restart of unknown broker accepted")
	}
}

func TestRestartBrokerFresh(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	if err := c.RestartBroker("b6"); err != nil {
		t.Fatal(err)
	}
	if c.Broker("b6") == nil || c.Container("b6") == nil {
		t.Fatal("replacement broker missing")
	}
	// The replacement participates in routing.
	pub, err := c.NewClient("p", "b6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Advertise(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(c.Broker("b12").SRTSnapshot()) != 1 {
		t.Error("advertisement from restarted broker did not flood")
	}
}
