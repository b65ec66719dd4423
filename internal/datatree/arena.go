package datatree

// Arena hands out nodes and exactly sized child lists from shared
// chunks, so a parser pays one allocation per chunk instead of one per
// node and one per child list. Chunks start small and double up to a
// bound, so a small document wastes little. A chunk stays reachable
// while any node or child list carved from it is. The zero value is
// ready to use.
type Arena struct {
	nodes                []Node
	kids                 []*Node
	nodeChunk, kidsChunk int // sizes of the current chunks
}

const (
	minNodeChunk = 16
	maxNodeChunk = 256
	minKidsChunk = 64
	maxKidsChunk = 1024
)

// New returns a zero node.
func (a *Arena) New() *Node {
	if len(a.nodes) == 0 {
		a.nodeChunk = nextChunk(a.nodeChunk, minNodeChunk, maxNodeChunk)
		a.nodes = make([]Node, a.nodeChunk)
	}
	n := &a.nodes[0]
	a.nodes = a.nodes[1:]
	return n
}

// Children returns a copy of kids whose capacity is its length, so
// appending to one node's children never writes into another's.
func (a *Arena) Children(kids []*Node) []*Node {
	n := len(kids)
	if n > maxKidsChunk/4 {
		c := make([]*Node, n)
		copy(c, kids)
		return c
	}
	if len(a.kids) < n {
		a.kidsChunk = nextChunk(a.kidsChunk, minKidsChunk, maxKidsChunk)
		a.kids = make([]*Node, max(a.kidsChunk, n))
	}
	c := a.kids[:n:n]
	copy(c, kids)
	a.kids = a.kids[n:]
	return c
}

// nextChunk doubles the previous chunk size, from lo up to hi.
func nextChunk(prev, lo, hi int) int {
	n := 2 * prev
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}
