package core

import (
	"fmt"
	"strings"

	"oopp/internal/wire"
)

// PageAddress is the physical location of a logical array page: which
// storage device process holds it, and at which page index — the paper's
//
//	typedef struct { int device_id; int index; } PageAddress;
type PageAddress struct {
	Device int
	Index  int
}

// PageMap maps logical page-grid coordinates to physical page addresses —
// the paper's PageMap with PhysicalPageAddress(i1,i2,i3). "The PageMap
// describes the array data layout and is crucial in determining the I/O
// patterns of the computation" (§5): experiment E7 measures exactly this.
//
// A PageMap is one immutable placement table over a fixed P1×P2×P3 page
// grid: a replica chain per page (primary first), all chains sharing one
// backing slice. The layouts (round-robin, blocked, striped, hash) and
// k-way replication are constructors that fill the table; Failover and
// MigratePages clone it, edit the chains, and swap the result in. The
// table is what a published or checkpointed array persists (encode), so
// reopening it addresses exactly the slots the data lives in.
type PageMap struct {
	grid
	k    int // nominal replication factor (chains may be shorter after failover)
	ppd  int // per-device capacity the table requires
	name string
	// chains[l] is the replica chain of linear page l. A page whose whole
	// chain died in a failover keeps its pre-failover chain, so
	// operations against it fail typed (ErrMachineDown), not by panic.
	chains [][]PageAddress
	// moved maps each migrated copy's pre-flip address to its new home
	// (set by MigratePages only). The park-and-replay path uses it to
	// re-aim work a fence refused — see relocatedAddr in migrate.go.
	moved map[PageAddress]PageAddress
}

// ReplicatedMap is the historical name of a k-way replicated PageMap.
type ReplicatedMap = PageMap

// grid carries the shared page-grid geometry.
type grid struct {
	p1, p2, p3 int
	devices    int
}

func (g grid) total() int { return g.p1 * g.p2 * g.p3 }

func (g grid) linear(p1, p2, p3 int) int {
	return (p1*g.p2+p2)*g.p3 + p3
}

func (g grid) check() error {
	if g.p1 <= 0 || g.p2 <= 0 || g.p3 <= 0 {
		return fmt.Errorf("core: invalid page grid %dx%dx%d", g.p1, g.p2, g.p3)
	}
	if g.devices <= 0 {
		return fmt.Errorf("core: page map needs >= 1 device, got %d", g.devices)
	}
	return nil
}

// newTable allocates a map whose chains all have length k, carved out of
// one backing slice; the caller fills them.
func newTable(g grid, name string, k, ppd int) *PageMap {
	total := g.total()
	back := make([]PageAddress, total*k)
	m := &PageMap{grid: g, k: k, ppd: ppd, name: name, chains: make([][]PageAddress, total)}
	for l := range m.chains {
		m.chains[l] = back[l*k : (l+1)*k : (l+1)*k]
	}
	return m
}

// layout builds an unreplicated map from an address formula over the
// linear page index, applied in page order. The capacity is the highest
// index the formula uses, plus one.
func layout(name string, p1, p2, p3, devices int, addr func(g grid, l int) PageAddress) (*PageMap, error) {
	g := grid{p1, p2, p3, devices}
	if err := g.check(); err != nil {
		return nil, err
	}
	m := newTable(g, name, 1, 0)
	for l, chain := range m.chains {
		chain[0] = addr(g, l)
		m.ppd = max(m.ppd, chain[0].Index+1)
	}
	return m, nil
}

// NewRoundRobinMap deals consecutive pages to devices cyclically: page l
// goes to device l mod D. Consecutive pages land on distinct devices, so
// bulk operations engage every disk — the maximally parallel layout.
func NewRoundRobinMap(p1, p2, p3, devices int) (*PageMap, error) {
	return layout("roundrobin", p1, p2, p3, devices, func(g grid, l int) PageAddress {
		return PageAddress{Device: l % g.devices, Index: l / g.devices}
	})
}

// NewBlockedMap stores contiguous runs of pages on each device: device 0
// holds the first total/D pages, and so on. Contiguous domains then hit
// one device at a time — the maximally *serial* layout, the adversarial
// baseline in experiment E7.
func NewBlockedMap(p1, p2, p3, devices int) (*PageMap, error) {
	return layout("blocked", p1, p2, p3, devices, func(g grid, l int) PageAddress {
		chunk := (g.total() + g.devices - 1) / g.devices
		return PageAddress{Device: l / chunk, Index: l % chunk}
	})
}

// NewStripedMap assigns pages by their first-axis coordinate: plane p1
// goes to device p1 mod D. Slab-shaped access along axis 1 parallelizes
// perfectly; a single plane concentrates on one device. This is the
// layout a 3D-FFT slab decomposition wants.
func NewStripedMap(p1, p2, p3, devices int) (*PageMap, error) {
	return layout("striped", p1, p2, p3, devices, func(g grid, l int) PageAddress {
		plane := g.p2 * g.p3
		q := l / plane
		return PageAddress{Device: q % g.devices, Index: (q/g.devices)*plane + l%plane}
	})
}

// NewHashMap scatters pages pseudo-randomly (splitmix-style avalanche on
// the linear index), assigning dense per-device indices in page order.
// It decorrelates any access pattern from device placement.
func NewHashMap(p1, p2, p3, devices int) (*PageMap, error) {
	var next []int // next free index per device
	return layout("hash", p1, p2, p3, devices, func(g grid, l int) PageAddress {
		if next == nil {
			next = make([]int, g.devices)
		}
		d := int(mix64(uint64(l)) % uint64(g.devices))
		next[d]++
		return PageAddress{Device: d, Index: next[d] - 1}
	})
}

// mix64 is the splitmix64 finalizer: a deterministic avalanche function
// (no math/rand dependency, reproducible across runs).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewReplicatedMap places every page of base on k devices: replica r of
// the page at base address (d, i) lives on device (d+r) mod D at page
// index r·basePPD + i — each device's page space is split into k banks,
// bank r holding its rotation-r replicas. The layout stays injective,
// every device carries k× the base capacity, and replica sets never
// share a device. k must be in [1, base.Devices()]: more replicas than
// devices would put two copies of a page on one device, which survives
// nothing.
func NewReplicatedMap(base *PageMap, k int) (*PageMap, error) {
	if base == nil {
		return nil, fmt.Errorf("core: replicated map needs a base layout")
	}
	if k < 1 || k > base.devices {
		return nil, fmt.Errorf("core: replication factor %d outside [1,%d devices]", k, base.devices)
	}
	name := base.name
	if k > 1 {
		name = fmt.Sprintf("%s+r%d", base.name, k)
	}
	m := newTable(base.grid, name, k, k*base.ppd)
	for l, chain := range m.chains {
		a0 := base.chains[l][0]
		for r := range chain {
			chain[r] = PageAddress{Device: (a0.Device + r) % base.devices, Index: r*base.ppd + a0.Index}
		}
	}
	return m, nil
}

// NewPageMap builds a base layout by name: "roundrobin", "blocked",
// "striped" or "hash". Used by the experiment harness and cmd flags.
func NewPageMap(name string, p1, p2, p3, devices int) (*PageMap, error) {
	switch name {
	case "roundrobin":
		return NewRoundRobinMap(p1, p2, p3, devices)
	case "blocked":
		return NewBlockedMap(p1, p2, p3, devices)
	case "striped":
		return NewStripedMap(p1, p2, p3, devices)
	case "hash":
		return NewHashMap(p1, p2, p3, devices)
	}
	return nil, fmt.Errorf("core: unknown page map %q", name)
}

// PageMapNames lists the available layouts.
func PageMapNames() []string {
	return []string{"roundrobin", "blocked", "striped", "hash"}
}

// Locate returns the primary address of logical page (p1,p2,p3).
func (m *PageMap) Locate(p1, p2, p3 int) PageAddress {
	return m.chains[m.linear(p1, p2, p3)][0]
}

// LocateAll returns the replica chain of page (p1,p2,p3), primary first.
// The slice is the table's own storage: callers must not modify it.
func (m *PageMap) LocateAll(p1, p2, p3 int) []PageAddress {
	return m.chains[m.linear(p1, p2, p3)]
}

// Devices returns the number of devices the map spreads over.
func (m *PageMap) Devices() int { return m.devices }

// PagesPerDevice returns the per-device capacity the map requires.
func (m *PageMap) PagesPerDevice() int { return m.ppd }

// Replicas returns the nominal replication factor k.
func (m *PageMap) Replicas() int { return m.k }

// Name identifies the layout in experiment tables and error messages.
func (m *PageMap) Name() string { return m.name }

// editChains returns a mutable deep copy of the table, one chain per
// linear page: the starting point of a Failover or MigratePages edit.
func (m *PageMap) editChains() [][]PageAddress {
	out := make([][]PageAddress, len(m.chains))
	for l, chain := range m.chains {
		out[l] = append([]PageAddress(nil), chain...)
	}
	return out
}

// edited returns a new map with m's grid and nominal k over devices
// devices, holding chains. tag marks the display name once
// ("+failover", "+resharded"); the capacity is the larger of m's and the
// highest slot the chains use.
func (m *PageMap) edited(devices int, chains [][]PageAddress, tag string, moved map[PageAddress]PageAddress) *PageMap {
	out := &PageMap{grid: m.grid, k: m.k, ppd: m.ppd, name: m.name, chains: pack(chains), moved: moved}
	out.devices = devices
	if !strings.HasSuffix(out.name, tag) {
		out.name += tag
	}
	for _, chain := range chains {
		for _, addr := range chain {
			out.ppd = max(out.ppd, addr.Index+1)
		}
	}
	return out
}

// pack copies chains into one backing slice.
func pack(chains [][]PageAddress) [][]PageAddress {
	n := 0
	for _, chain := range chains {
		n += len(chain)
	}
	back := make([]PageAddress, 0, n)
	out := make([][]PageAddress, len(chains))
	for l, chain := range chains {
		start := len(back)
		back = append(back, chain...)
		out[l] = back[start:len(back):len(back)]
	}
	return out
}

// encode writes the whole placement table: grid, devices, nominal k,
// capacity, display name, then every chain as a length followed by
// (device, index) pairs. The migration moved index is transient and not
// encoded.
func (m *PageMap) encode(e *wire.Encoder) {
	e.PutInt(m.p1)
	e.PutInt(m.p2)
	e.PutInt(m.p3)
	e.PutInt(m.devices)
	e.PutInt(m.k)
	e.PutInt(m.ppd)
	e.PutString(m.name)
	for _, chain := range m.chains {
		e.PutInt(len(chain))
		for _, addr := range chain {
			e.PutInt(addr.Device)
			e.PutInt(addr.Index)
		}
	}
}

// decodePageMap reads a table written by encode, rejecting chains that
// are empty or address outside [0,devices) × [0,capacity).
func decodePageMap(d *wire.Decoder) (*PageMap, error) {
	g := grid{d.Int(), d.Int(), d.Int(), d.Int()}
	k, ppd, name := d.Int(), d.Int(), d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := g.check(); err != nil {
		return nil, err
	}
	// Every chain takes at least 3 bytes, which bounds the table by the
	// frame before anything is allocated (and keeps the product in range).
	rem := d.Remaining() / 3
	if g.p1 > rem || g.p2 > rem/g.p1 || g.p3 > rem/(g.p1*g.p2) || k < 1 || ppd < 1 {
		return nil, fmt.Errorf("core: corrupt page map %q (%dx%dx%d pages, k=%d, capacity %d)", name, g.p1, g.p2, g.p3, k, ppd)
	}
	chains := make([][]PageAddress, g.total())
	for l := range chains {
		n := d.Int()
		if n < 1 || n > g.devices || n > d.Remaining()/2 {
			return nil, fmt.Errorf("core: page map %q: page %d has a chain of %d replicas", name, l, n)
		}
		chains[l] = make([]PageAddress, n)
		for r := range chains[l] {
			addr := PageAddress{Device: d.Int(), Index: d.Int()}
			if addr.Device < 0 || addr.Device >= g.devices || addr.Index < 0 || addr.Index >= ppd {
				return nil, fmt.Errorf("core: page map %q: page %d replica at %v out of range", name, l, addr)
			}
			chains[l][r] = addr
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
	}
	return &PageMap{grid: g, k: k, ppd: ppd, name: name, chains: pack(chains)}, nil
}
