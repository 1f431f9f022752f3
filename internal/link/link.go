// Package link models the off-chip SerDes links that connect the processor
// to the Hybrid Memory Cube: 4 full-duplex links (Table I: 4-links@8GHz),
// each carrying packetised traffic with a 16-byte header/tail overhead per
// packet, a fixed traversal latency, and a serialisation rate.
//
// Traffic is routed to a link by vault quadrant, matching the HMC
// specification's association of links with vault groups. Each direction
// of each link is an independent serialisation resource.
package link

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// Config describes the link subsystem.
type Config struct {
	Links uint32 // number of links (4)
	// BytesPerCycle is the serialisation rate of one direction of one
	// link in bytes per CPU cycle. 16 lanes at 8 GHz against a 2 GHz core
	// yields 16 B/cycle per direction.
	BytesPerCycle uint32
	// Latency is the fixed one-way traversal latency in CPU cycles
	// (SerDes, package, controller).
	Latency sim.Cycle
	// PacketOverhead is the header+tail bytes added to every packet
	// (16 B in HMC 2.1).
	PacketOverhead uint32
}

// Default returns the paper's link configuration.
func Default() Config {
	return Config{Links: 4, BytesPerCycle: 16, Latency: 8, PacketOverhead: 16}
}

// Validate rejects degenerate configurations.
func (c Config) Validate() error {
	if c.Links == 0 || c.Links&(c.Links-1) != 0 {
		return fmt.Errorf("link: link count %d not a power of two", c.Links)
	}
	if c.BytesPerCycle == 0 {
		return fmt.Errorf("link: zero bandwidth")
	}
	return nil
}

// Packet is one request/response exchange across the links. The packet
// itself is the scheduler event for both link traversals (request
// arrival at the cube, response delivery at the requester), so sending
// one allocates nothing beyond what the caller provides; hot callers
// keep packets in pooled operation objects and reuse them.
type Packet struct {
	// Vault selects the destination vault, which determines the link.
	Vault uint32
	// ReqPayload is the request payload size in bytes (0 for reads).
	ReqPayload uint32
	// RespPayload is the response payload size in bytes.
	RespPayload uint32
	// Execute runs on the cube side when the request arrives; the
	// callee must invoke p.Complete exactly once when the in-cube
	// operation finishes, which triggers response serialisation back to
	// the requester.
	Execute func(p *Packet)
	// Done fires on the requester side when the response has fully
	// arrived. May be nil.
	Done func(now sim.Cycle)

	// Bound by Send for the response path.
	ctl *Controller
	l   *phyLink
}

// Packet event tags.
const (
	pktArrive uint64 = iota
	pktDeliver
)

// OnEvent implements sim.Handler: the packet dispatches its own link
// traversals.
func (p *Packet) OnEvent(now sim.Cycle, tag uint64) {
	switch tag {
	case pktArrive:
		p.Execute(p)
	default:
		p.Done(now)
	}
}

// Complete serialises the response back to the requester: the cube side
// must call it exactly once, when the in-cube operation has finished.
// Done (if set) fires once the response has fully arrived.
func (p *Packet) Complete() {
	respDone := p.ctl.serialize(&p.l.resp, p.RespPayload)
	deliver := respDone + p.ctl.cfg.Latency
	if p.Done != nil {
		p.ctl.engine.ScheduleEvent(deliver, p, pktDeliver)
	}
}

type direction struct {
	freeAt sim.Cycle
	bytes  *stats.Counter
	pkts   *stats.Counter
}

type phyLink struct {
	req  direction
	resp direction
}

// Controller is the CPU-side link controller plus the cube-side response
// scheduler.
type Controller struct {
	cfg    Config
	engine *sim.Engine
	links  []phyLink
	vaults uint32
}

// New builds a link controller for a cube with the given vault count.
func New(engine *sim.Engine, cfg Config, vaults uint32, reg *stats.Registry) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if vaults%cfg.Links != 0 {
		return nil, fmt.Errorf("link: %d vaults not divisible by %d links", vaults, cfg.Links)
	}
	c := &Controller{cfg: cfg, engine: engine, vaults: vaults}
	for i := uint32(0); i < cfg.Links; i++ {
		sc := reg.Scope(fmt.Sprintf("link%d", i))
		c.links = append(c.links, phyLink{
			req:  direction{bytes: sc.Counter("req_bytes"), pkts: sc.Counter("req_packets")},
			resp: direction{bytes: sc.Counter("resp_bytes"), pkts: sc.Counter("resp_packets")},
		})
	}
	return c, nil
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Reset idles both directions of every link. Counters are zeroed by the
// registry reset the machine performs alongside.
func (c *Controller) Reset() {
	for i := range c.links {
		c.links[i].req.freeAt = 0
		c.links[i].resp.freeAt = 0
	}
}

// Reset drops the port's in-flight state. Pooled ops survive; ops that
// were in flight are abandoned with the engine's event queue.
func (m *MemPort) Reset() {}

// linkFor maps a vault to its link (vault quadrants).
func (c *Controller) linkFor(vault uint32) *phyLink {
	perLink := c.vaults / c.cfg.Links
	return &c.links[(vault/perLink)%c.cfg.Links]
}

func (c *Controller) serialize(d *direction, payload uint32) sim.Cycle {
	bytes := payload + c.cfg.PacketOverhead
	cycles := sim.Cycle((bytes + c.cfg.BytesPerCycle - 1) / c.cfg.BytesPerCycle)
	start := c.engine.Now()
	if d.freeAt > start {
		start = d.freeAt
	}
	d.freeAt = start + cycles
	d.bytes.Add(uint64(bytes))
	d.pkts.Inc()
	return d.freeAt
}

// Send transmits a packet: request serialisation + latency, Execute at the
// cube, then response serialisation + latency (Complete), then Done.
func (c *Controller) Send(p *Packet) {
	if p.Execute == nil {
		panic("link: packet without Execute")
	}
	p.ctl = c
	p.l = c.linkFor(p.Vault)
	txDone := c.serialize(&p.l.req, p.ReqPayload)
	arrive := txDone + c.cfg.Latency
	c.engine.ScheduleEvent(arrive, p, pktArrive)
}

// MemPort adapts the link controller into a mem.Port in front of the
// DRAM (the plain "HMC as main memory" path used by the cache hierarchy):
// reads carry a header-only request and a payload response; writes carry a
// payload request and a header-only acknowledgement.
//
// MemPort pools its in-flight operation state: each access draws a
// memOp (packet + inner DRAM request + pre-bound callbacks) from its
// pool and returns it when the response delivers, so the steady-state
// uncacheable path allocates nothing.
type MemPort struct {
	Ctl   *Controller
	Geom  mem.Geometry
	Inner mem.Port

	ops sim.Pool[memOp]
}

// memOp is one pooled in-flight MemPort access.
type memOp struct {
	m     *MemPort
	pkt   Packet
	inner mem.Request
	done  func(now sim.Cycle) // the original requester's Done (may be nil)

	// Pre-bound method values, created once per pooled op.
	execFn      func(p *Packet)
	innerDoneFn func(now sim.Cycle)
	deliverFn   func(now sim.Cycle)
}

// freshOp builds a pooled op with its callbacks pre-bound.
func (m *MemPort) freshOp() *memOp {
	op := &memOp{m: m}
	op.execFn = op.exec
	op.innerDoneFn = op.innerDone
	op.deliverFn = op.deliver
	return op
}

// exec runs cube-side on request arrival: forward to the DRAM.
func (op *memOp) exec(*Packet) {
	op.inner.Done = op.innerDoneFn
	op.m.Inner.Access(&op.inner)
}

// innerDone fires when the DRAM access completes: serialise the response.
func (op *memOp) innerDone(sim.Cycle) { op.pkt.Complete() }

// deliver fires requester-side when the response arrives: release the
// op, then complete the original request.
func (op *memOp) deliver(now sim.Cycle) {
	done := op.done
	op.done = nil
	op.m.ops.Put(op)
	if done != nil {
		done(now)
	}
}

// Access implements mem.Port. Requests must be row-contained (cache lines
// and HMC operands always are); larger transfers must be pre-split.
func (m *MemPort) Access(req *mem.Request) bool {
	loc := m.Geom.Decompose(req.Addr)
	var reqPayload, respPayload uint32
	if req.Kind == mem.Write {
		reqPayload = req.Size
	} else {
		respPayload = req.Size
	}
	op := m.ops.Get(m.freshOp)
	op.inner = mem.Request{Addr: req.Addr, Size: req.Size, Kind: req.Kind}
	op.done = req.Done
	op.pkt = Packet{
		Vault:       loc.Vault,
		ReqPayload:  reqPayload,
		RespPayload: respPayload,
		Execute:     op.execFn,
		// Always set, so the op is always released at delivery even
		// when the requester passed no Done. The extra no-op event
		// cannot reorder other same-cycle events (pairwise FIFO order
		// depends only on their own scheduling order).
		Done: op.deliverFn,
	}
	m.Ctl.Send(&op.pkt)
	return true
}

var _ mem.Port = (*MemPort)(nil)
