package cluster

import (
	"fmt"
	"sort"
)

// Tenant is a component allocated on one or more nodes. The performance
// model evaluates each tenant against its co-located tenants.
type Tenant struct {
	// ID uniquely identifies the tenant within the machine.
	ID string
	// Cores is the number of cores held (on Node).
	Cores int
	// Node is the index of the node holding the allocation. ensemblekit
	// components are single-node (as in the paper: every component fits in
	// one node).
	Node int
	// Profile describes the tenant's resource usage.
	Profile Profile
	// RemoteReaders is the number of remote components that pull staged
	// data out of this tenant's node memory (DIMES keeps data local to the
	// producer; remote gets perturb the producer node).
	RemoteReaders int
	// StagingBytes is node memory reserved for the tenant's staged chunks
	// (DIMES keeps data in the producer's DRAM). Counted against node
	// memory alongside the working set.
	StagingBytes int64
	// Sockets lists the socket indexes the tenant's cores occupy (empty
	// when socket fidelity is off).
	Sockets []int
}

// sharesSocket reports whether two tenants overlap on any socket. With
// socket fidelity off (empty socket sets) every pair counts as sharing.
func (t *Tenant) sharesSocket(other *Tenant) bool {
	if len(t.Sockets) == 0 || len(other.Sockets) == 0 {
		return true
	}
	for _, a := range t.Sockets {
		for _, b := range other.Sockets {
			if a == b {
				return true
			}
		}
	}
	return false
}

// memoryFootprint is the tenant's total node-memory demand.
func (t *Tenant) memoryFootprint() int64 {
	return t.Profile.WorkingSetBytes + t.StagingBytes
}

// Node is a compute node with a fixed core capacity and a tenant list.
type Node struct {
	Index   int
	spec    Spec
	tenants []*Tenant
	used    int
	// socketFree tracks per-socket free cores when socket fidelity is on.
	socketFree []int
}

// assignSockets places `cores` onto sockets (preferring the single socket
// with the tightest fit to reduce fragmentation, spanning in index order
// otherwise) and returns the socket set.
func (n *Node) assignSockets(cores int) (sockets []int) {
	if len(n.socketFree) == 0 {
		return nil
	}
	// Prefer a single socket with the least leftover space that fits.
	best, bestFree := -1, int(^uint(0)>>1)
	for s, free := range n.socketFree {
		if free >= cores && free < bestFree {
			best, bestFree = s, free
		}
	}
	if best >= 0 {
		n.socketFree[best] -= cores
		return []int{best}
	}
	// Span sockets: drain in index order.
	left := cores
	for s := range n.socketFree {
		if left == 0 {
			break
		}
		if n.socketFree[s] == 0 {
			continue
		}
		take := min(n.socketFree[s], left)
		n.socketFree[s] -= take
		left -= take
		sockets = append(sockets, s)
	}
	return sockets
}

// FreeCores returns the number of unallocated cores.
func (n *Node) FreeCores() int { return n.spec.CoresPerNode - n.used }

// UsedCores returns the number of allocated cores.
func (n *Node) UsedCores() int { return n.used }

// Tenants returns the tenants currently allocated on the node.
func (n *Node) Tenants() []*Tenant { return n.tenants }

// Machine tracks allocations on a cluster. It is the admission layer: a
// placement that oversubscribes a node's cores or memory is rejected, which
// is how invalid configurations are surfaced before simulation.
type Machine struct {
	spec  Spec
	nodes []*Node
	byID  map[string]*Tenant
}

// NewMachine builds a machine from a validated spec.
func NewMachine(spec Spec) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{spec: spec, byID: make(map[string]*Tenant)}
	m.nodes = make([]*Node, spec.Nodes)
	for i := range m.nodes {
		n := &Node{Index: i, spec: spec}
		if spec.SocketsPerNode > 1 {
			n.socketFree = make([]int, spec.SocketsPerNode)
			for s := range n.socketFree {
				n.socketFree[s] = spec.coresPerSocket()
			}
		}
		m.nodes[i] = n
	}
	return m, nil
}

// Spec returns the machine's hardware specification.
func (m *Machine) Spec() Spec { return m.spec }

// Node returns the node with the given index.
func (m *Machine) Node(i int) (*Node, error) {
	if i < 0 || i >= len(m.nodes) {
		return nil, fmt.Errorf("cluster: node index %d out of range [0,%d)", i, len(m.nodes))
	}
	return m.nodes[i], nil
}

// Nodes returns all nodes in index order.
func (m *Machine) Nodes() []*Node { return m.nodes }

// Allocate places a tenant with the given core count and profile on a node.
// It fails if the node lacks cores, the working set plus existing tenants
// exceed node memory, or the ID is already in use.
func (m *Machine) Allocate(id string, node, cores int, prof Profile) (*Tenant, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if cores <= 0 {
		return nil, fmt.Errorf("cluster: tenant %q: cores must be positive, got %d", id, cores)
	}
	if _, dup := m.byID[id]; dup {
		return nil, fmt.Errorf("cluster: tenant %q already allocated", id)
	}
	n, err := m.Node(node)
	if err != nil {
		return nil, err
	}
	if cores > n.FreeCores() {
		return nil, fmt.Errorf("cluster: tenant %q needs %d cores on node %d but only %d free",
			id, cores, node, n.FreeCores())
	}
	var memUsed int64
	for _, t := range n.tenants {
		memUsed += t.memoryFootprint()
	}
	if memUsed+prof.WorkingSetBytes > m.spec.MemBytesPerNode {
		return nil, fmt.Errorf("cluster: tenant %q working set overflows node %d memory", id, node)
	}
	t := &Tenant{ID: id, Cores: cores, Node: node, Profile: prof}
	t.Sockets = n.assignSockets(cores)
	n.tenants = append(n.tenants, t)
	n.used += cores
	m.byID[id] = t
	return t, nil
}

// Tenant looks up a tenant by ID.
func (m *Machine) Tenant(id string) (*Tenant, bool) {
	t, ok := m.byID[id]
	return t, ok
}

// ReserveStaging reserves node memory for a tenant's staged chunks
// (DIMES double-buffers: the chunk being read plus the chunk being
// written). It fails if the node's memory cannot hold the reservation on
// top of all resident working sets.
func (m *Machine) ReserveStaging(id string, bytes int64) error {
	t, ok := m.byID[id]
	if !ok {
		return fmt.Errorf("cluster: tenant %q not allocated", id)
	}
	if bytes < 0 {
		return fmt.Errorf("cluster: negative staging reservation for %q", id)
	}
	n := m.nodes[t.Node]
	var memUsed int64
	for _, q := range n.tenants {
		if q != t {
			memUsed += q.memoryFootprint()
		}
	}
	memUsed += t.Profile.WorkingSetBytes
	if memUsed+bytes > m.spec.MemBytesPerNode {
		return fmt.Errorf("cluster: staging %d bytes for %q overflows node %d memory", bytes, id, t.Node)
	}
	t.StagingBytes = bytes
	return nil
}

// UsedNodes returns the sorted indexes of nodes with at least one tenant —
// the quantity M of the paper's resource-provisioning indicator.
func (m *Machine) UsedNodes() []int {
	var out []int
	for _, n := range m.nodes {
		if len(n.tenants) > 0 {
			out = append(out, n.Index)
		}
	}
	sort.Ints(out)
	return out
}
