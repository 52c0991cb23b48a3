package proto

import (
	"fmt"
	"slices"
	"testing"

	"bulletprime/internal/trace"
)

// deliveryScript drives one fixed sequence through rt between nodes 0 and 1
// and returns the callback log: a dial and its accept, mixed control and
// data messages in both directions, a close and its peer notification, then
// a second dial aborted with a message still in flight. carry moves what the
// step just put in flight to its destination: the emulated rig runs its
// engine, the stub transport replays the calls it recorded through the Wire*
// entry points.
func deliveryScript(rt *Runtime, carry func(step string, c *Conn, from *Node)) []string {
	var log []string
	a, b := rt.Node(0), rt.Node(1)
	for _, n := range []*Node{a, b} {
		n.OnAccept = func(c *Conn) { log = append(log, fmt.Sprintf("accept %d", n.ID)) }
		n.OnMessage = func(c *Conn, m Message) {
			log = append(log, fmt.Sprintf("msg %d<-%d kind %d size %g", n.ID, c.Peer(n).ID, m.Kind, m.Size))
		}
		n.OnClose = func(c *Conn) { log = append(log, fmt.Sprintf("close %d", n.ID)) }
	}
	isData := func(kind int) bool { return kind == 2 }

	c := a.Dial(b.ID)
	c.IsData = isData
	carry("accept", c, a)
	c.Send(a, Message{Kind: 1, Size: 100})
	c.Send(a, Message{Kind: 2, Size: 16384})
	c.Send(a, Message{Kind: 3, Size: 20}) // below MsgOverhead: charged 68
	c.Send(a, Message{Kind: 2, Size: 1000})
	carry("deliver", c, a)
	c.Send(b, Message{Kind: 1, Size: 200})
	c.Send(b, Message{Kind: 2, Size: 4096})
	carry("deliver", c, b)
	c.Close(a)
	carry("peer-close", c, a)

	d := b.Dial(a.ID)
	d.IsData = isData
	carry("accept", d, b)
	d.Send(b, Message{Kind: 2, Size: 512})
	d.WireAbort()
	carry("deliver", d, b) // the in-flight message dies with the connection
	return log
}

// deliveryTotals is everything the delivery step counts.
type deliveryTotals struct {
	messages                 uint64
	control, data, dataMeter float64
	inMeter                  [2]float64
}

func totalsOf(rt *Runtime) deliveryTotals {
	return deliveryTotals{
		messages:  rt.MessagesDelivered,
		control:   rt.ControlBytes,
		data:      rt.DataBytes,
		inMeter:   [2]float64{rt.Node(0).InMeter.Total(), rt.Node(1).InMeter.Total()},
		dataMeter: rt.DataMeter.Total(),
	}
}

// TestDeliveryMatchesAcrossBackends pins that a message delivered by the
// emulator and one delivered by a transport are counted by the same step:
// the same script over an emulated connection and over the stub transport
// yields identical message, control and data counts, meter totals, and
// callback order.
func TestDeliveryMatchesAcrossBackends(t *testing.T) {
	eng, emu := newRig(2)
	emu.DataMeter = trace.NewRateMeter(1, 32)
	emuLog := deliveryScript(emu, func(string, *Conn, *Node) { eng.Run() })

	_, wire, st := newTransportRig(2)
	wire.DataMeter = trace.NewRateMeter(1, 32)
	replayed := 0
	wireLog := deliveryScript(wire, func(step string, c *Conn, from *Node) {
		switch step {
		case "accept":
			c.WireAccept()
		case "deliver":
			for _, m := range st.sent[replayed:] {
				c.WireDeliver(from.ID, m)
			}
			replayed = len(st.sent)
		case "peer-close":
			c.WirePeerClose(c.Peer(from).ID)
		}
	})

	want := []string{
		"accept 1",
		"msg 1<-0 kind 1 size 100",
		"msg 1<-0 kind 2 size 16384",
		"msg 1<-0 kind 3 size 68",
		"msg 1<-0 kind 2 size 1000",
		"msg 0<-1 kind 1 size 200",
		"msg 0<-1 kind 2 size 4096",
		"close 0",
		"close 1",
		"accept 0",
		"close 1",
		"close 0",
	}
	if !slices.Equal(emuLog, want) {
		t.Fatalf("emulated callbacks:\n%q\nwant\n%q", emuLog, want)
	}
	if !slices.Equal(wireLog, want) {
		t.Fatalf("transport callbacks:\n%q\nwant\n%q", wireLog, want)
	}
	emuTotals, wireTotals := totalsOf(emu), totalsOf(wire)
	if emuTotals != wireTotals {
		t.Fatalf("delivery accounting differs:\nemulated  %+v\ntransport %+v", emuTotals, wireTotals)
	}
	wantTotals := deliveryTotals{
		messages:  6,
		control:   100 + 68 + 200,
		data:      16384 + 1000 + 4096,
		inMeter:   [2]float64{200 + 4096, 100 + 16384 + 68 + 1000},
		dataMeter: 16384 + 1000 + 4096,
	}
	if emuTotals != wantTotals {
		t.Fatalf("delivery accounting %+v, want %+v", emuTotals, wantTotals)
	}
}
