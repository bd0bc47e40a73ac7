package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// delivery is one deferred message: deliver msg no earlier than at.
type delivery struct {
	msg interface{}
	at  time.Time
}

// faultConn wraps one transport.Conn in a link's fault profile. All
// stochastic decisions draw from a per-link RNG seeded by (scenario seed,
// role, link ordinal), with a FIXED number of draws per message index —
// so the decision at index i of link (role, ordinal) is identical across
// runs regardless of wall time, partition state, or goroutine scheduling.
type faultConn struct {
	in    *Injector
	role  Role
	ord   int
	inner transport.Conn
	rule  Rule

	mu       sync.Mutex
	rng      *rand.Rand
	seq      int // send index
	rseq     int // receive index
	lastAt   time.Time
	nextFree time.Time // bandwidth-cap cursor

	queue  *actor.Queue[delivery]
	quit   actor.Gate
	closed atomic.Bool
}

func newFaultConn(in *Injector, role Role, ord int, inner transport.Conn, rule Rule) *faultConn {
	c := &faultConn{
		in:    in,
		role:  role,
		ord:   ord,
		inner: inner,
		rule:  rule,
		rng:   rand.New(rand.NewSource(int64(linkSeed(in.seed, role, ord)))),
	}
	if rule.delayed() {
		c.queue = actor.NewQueue[delivery](rule.Queue)
		in.clock.Go(c.sender)
	}
	return c
}

// decision is one message's full fault draw.
type decision struct {
	drop    bool
	dup     bool
	corrupt bool
	jitter  time.Duration
}

// draw consumes exactly four RNG values per message, whatever the outcome,
// keeping the per-index decision stream pure.
func (c *faultConn) draw() (int, decision) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := c.seq
	c.seq++
	var d decision
	d.drop = c.rng.Float64() < c.rule.Drop
	d.dup = c.rng.Float64() < c.rule.Dup
	d.corrupt = c.rng.Float64() < c.rule.Corrupt
	frac := c.rng.Float64()
	if c.rule.Jitter > 0 {
		d.jitter = time.Duration(frac * float64(c.rule.Jitter))
	}
	return idx, d
}

func (c *faultConn) record(seq int, msg interface{}, fault, detail string) {
	c.in.trace.record(Event{
		Elapsed: c.in.clock.Now().Sub(c.in.start),
		Role:    c.role,
		Link:    c.ord,
		Seq:     seq,
		Msg:     msgName(msg),
		Fault:   fault,
		Detail:  detail,
	})
}

// Send implements transport.Conn with the link's fault profile applied.
func (c *faultConn) Send(msg interface{}) error {
	idx, d := c.draw()

	// Scheduled resets fire on the first send at/after their trigger.
	now := c.in.clock.Now()
	if c.closed.Load() {
		return fmt.Errorf("chaos: connection closed")
	}
	if ri := c.in.claimReset(c.role, now); ri >= 0 {
		c.record(idx, msg, FaultReset, "scheduled")
		_ = c.Close()
		return fmt.Errorf("chaos: connection reset")
	}

	if c.in.partitioned(c.role, now) {
		// Black hole: the send "succeeds" but nothing crosses the
		// partition — the sender learns only through missed heartbeats.
		c.record(idx, msg, FaultPartition, "")
		return nil
	}
	if d.drop {
		c.record(idx, msg, FaultDrop, "")
		return nil
	}
	if d.corrupt {
		damaged, ok := corruptMsg(msg)
		if !ok {
			// No structurally damageable payload: corrupt degrades to a
			// drop (a torn frame the codec rejects whole).
			c.record(idx, msg, FaultCorrupt, "dropped: no payload to damage")
			return nil
		}
		c.record(idx, msg, FaultCorrupt, "payload damaged")
		msg = damaged
	}

	if !c.rule.delayed() {
		if err := c.inner.Send(msg); err != nil {
			return err
		}
		if d.dup {
			c.record(idx, msg, FaultDuplicate, "")
			return c.inner.Send(msg)
		}
		return nil
	}

	// Deferred path: compute the delivery time under the delay, jitter,
	// and bandwidth cap, keeping per-link delivery order monotonic (a TCP
	// stream reorders nothing; latency only stretches spacing).
	c.mu.Lock()
	at := now.Add(c.rule.Delay + d.jitter)
	if c.rule.Rate > 0 {
		busy := time.Duration(float64(msgSize(msg)) / float64(c.rule.Rate) * float64(time.Second))
		if c.nextFree.After(at) {
			at = c.nextFree
		}
		c.nextFree = at.Add(busy)
	}
	if at.Before(c.lastAt) {
		at = c.lastAt
	}
	c.lastAt = at
	c.mu.Unlock()

	if d := at.Sub(now); d > 0 {
		c.record(idx, msg, FaultDelay, fmt.Sprintf("%v", d.Round(time.Millisecond)))
	}
	n := 1
	if d.dup {
		c.record(idx, msg, FaultDuplicate, "")
		n = 2
	}
	// A queued send holds its own reference to the loan behind msg.
	loan := transport.LoanOf(msg)
	for i := 0; i < n; i++ {
		loan.Acquire()
		if !c.queue.Push(delivery{msg: msg, at: at}, nil) {
			loan.Release()
			c.record(idx, msg, FaultQueueFull, fmt.Sprintf("queue=%d", c.rule.Queue))
			return nil
		}
	}
	return nil
}

// sender drains the deferred-delivery queue in order, sleeping each message
// to its delivery time; once the connection closes, the rest drains unsent.
func (c *faultConn) sender() {
	for {
		d, ok := c.queue.Pop(c.in.clock)
		if !ok {
			return
		}
		wait := d.at.Sub(c.in.clock.Now())
		if !c.closed.Load() && (wait <= 0 || actor.Sleep(c.in.clock, wait, &c.quit)) {
			if err := c.inner.Send(d.msg); err != nil {
				// The underlying stream died; tear the wrapper down so
				// accounting sees the close.
				_ = c.Close()
			}
		}
		transport.LoanOf(d.msg).Release()
	}
}

// Recv implements transport.Conn: inbound messages are discarded while a
// partition window covers this link (the blackhole cuts both directions).
func (c *faultConn) Recv() (interface{}, error) {
	for {
		msg, err := c.inner.Recv()
		if err != nil {
			return nil, err
		}
		if c.in.partitioned(c.role, c.in.clock.Now()) {
			c.mu.Lock()
			rseq := c.rseq
			c.rseq++
			c.mu.Unlock()
			c.record(rseq, msg, FaultPartitionRecv, "")
			continue
		}
		c.mu.Lock()
		c.rseq++
		c.mu.Unlock()
		return msg, nil
	}
}

// Release and Hold implement transport.Conn: the lease is the inner link's.
func (c *faultConn) Release()              { c.inner.Release() }
func (c *faultConn) Hold() *transport.Loan { return c.inner.Hold() }

// Close implements transport.Conn.
func (c *faultConn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.quit.Close()
	if c.queue != nil {
		c.queue.Close()
	}
	c.in.closed.Add(1)
	return c.inner.Close()
}

// msgName is the short type name for trace events.
func msgName(msg interface{}) string {
	if msg == nil {
		return ""
	}
	if e, ok := msg.(*transport.Encoded); ok {
		return "Encoded:" + msgName(e.Message())
	}
	return fmt.Sprintf("%T", msg)
}

// msgSize approximates a message's wire size for the bandwidth cap: the
// large payload fields plus a small framing constant.
func msgSize(msg interface{}) int {
	switch m := msg.(type) {
	case *transport.Encoded:
		return msgSize(m.Message())
	case protocol.StripeSeal:
		return len(m.Sum) + 128
	case protocol.RoundConfig:
		return len(m.Plan) + len(m.Checkpoint) + 128
	case protocol.CheckinResponse:
		return len(m.Plan) + len(m.Checkpoint) + 64
	case protocol.ReportRequest:
		return len(m.Update) + 64
	default:
		return 64
	}
}

// corruptMsg returns a structurally damaged copy of msg — damage the
// receiving codec or validator DETECTS (an undecodable checkpoint, an
// unparseable stripe sum), modeling a torn frame. Bit flips that survive
// decoding are out of scope: the stack trusts its own links' payload
// integrity (no checksums), documented in DESIGN.md. Messages with no
// damageable payload return ok=false and degrade to a drop.
func corruptMsg(msg interface{}) (interface{}, bool) {
	switch m := msg.(type) {
	case *transport.Encoded:
		// Corrupting a shared pre-framed message must not touch the cached
		// frame other links send; damage a plain copy instead.
		return corruptMsg(m.Message())
	case protocol.StripeSeal:
		m.Sum = []byte{0xde, 0xad}
		return m, true
	case protocol.RoundConfig:
		m.Checkpoint = []byte{0xbe, 0xef}
		return m, true
	case protocol.CheckinResponse:
		if len(m.Checkpoint) == 0 {
			return nil, false
		}
		m.Checkpoint = []byte{0xbe, 0xef}
		return m, true
	case protocol.ReportRequest:
		if len(m.Update) == 0 {
			return nil, false
		}
		m.Update = []byte{0xde, 0xad}
		return m, true
	default:
		return nil, false
	}
}
