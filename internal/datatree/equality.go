package datatree

import (
	"sort"
	"strconv"
)

// Encoder assigns canonical integer codes to subtrees such that two
// nodes receive the same code if and only if they are node-value
// equal (Definition 3): same label, same value assignment, and a
// one-to-one correspondence between node-value-equal children. The
// correspondence requirement makes child comparison a multiset
// equality, which the encoder realizes by sorting child codes.
//
// Codes are interned, so equality checks after encoding are O(1) and
// encoding a whole tree is O(n log n) in the number of nodes. An
// Encoder may be shared across trees: codes are then comparable
// across those trees, which is what path-value equality
// (Definition 4) between documents needs.
//
// The zero value is ready to use. Encoders are not safe for
// concurrent use.
type Encoder struct {
	intern map[string]int
	cache  map[*Node]int
	// key is the reused buffer canonical keys are assembled in; a key
	// string is allocated only when it is interned for the first time.
	key []byte
	// stack holds the child codes of every node on the current
	// encoding path, each node's codes above its ancestors'.
	stack []int
}

// Reserve sizes the per-node memo for n nodes, so encoding a whole
// tree of that size does not rehash it as it fills. It is a hint and
// has no effect on codes; call it before the first Encode.
func (e *Encoder) Reserve(n int) {
	if e.cache == nil {
		e.cache = make(map[*Node]int, n)
	}
}

// Encode returns the canonical code of the subtree rooted at n.
func (e *Encoder) Encode(n *Node) int {
	if c, ok := e.cache[n]; ok {
		return c
	}
	if e.cache == nil {
		e.cache = make(map[*Node]int)
	}
	base := len(e.stack)
	for _, c := range n.Children {
		code := e.Encode(c)
		e.stack = append(e.stack, code)
	}
	codes := e.stack[base:]
	sort.Ints(codes)
	// Key layout: label, NUL, 'v' and the value if there is one, NUL,
	// then each sorted child code in decimal followed by ','.
	k := append(e.key[:0], n.Label...)
	k = append(k, 0)
	if n.HasValue {
		k = append(k, 'v')
		k = append(k, n.Value...)
	}
	k = append(k, 0)
	code := e.internKey(appendCodes(k, codes))
	e.stack = e.stack[:base]
	e.cache[n] = code
	return code
}

// internKey returns the code of the key assembled in e.key, assigning
// the next code if it is new. The lookup converts the buffer without
// copying; only a first sighting allocates the key string.
func (e *Encoder) internKey(k []byte) int {
	e.key = k
	if code, ok := e.intern[string(k)]; ok {
		return code
	}
	if e.intern == nil {
		e.intern = make(map[string]int)
	}
	code := len(e.intern) + 1
	e.intern[string(k)] = code
	return code
}

func appendCodes(k []byte, codes []int) []byte {
	for _, c := range codes {
		k = strconv.AppendInt(k, int64(c), 10)
		k = append(k, ',')
	}
	return k
}

// NodeValueEqual reports whether two nodes are node-value equal per
// Definition 3: both subtrees are identical ignoring sibling order.
func (e *Encoder) NodeValueEqual(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return e.Encode(a) == e.Encode(b)
}

// NodeValueEqual is a convenience wrapper using a fresh Encoder.
func NodeValueEqual(a, b *Node) bool {
	var e Encoder
	return e.NodeValueEqual(a, b)
}

// MultisetCode returns a canonical code for an unordered collection
// of subtrees: two collections receive the same code iff there is a
// one-to-one node-value-equal correspondence between them. This is
// the primitive behind set partitions (the paper's Section 4.4) and
// path-value equality.
func (e *Encoder) MultisetCode(nodes []*Node) int {
	return e.collectionCode("ms", nodes, true)
}

// MultisetOfCodes interns an unordered collection of already-encoded
// subtree codes: the code MultisetCode gives the members they were
// encoded from. The argument slice is sorted in place. Builders use
// this form when the member subtrees are long gone and only their
// codes were kept.
func (e *Encoder) MultisetOfCodes(codes []int) int {
	sort.Ints(codes)
	return e.internCodes("ms", codes)
}

// ListOfCodes is MultisetOfCodes for an ordered list: the code
// ListCode gives the members the codes were encoded from, in order.
func (e *Encoder) ListOfCodes(codes []int) int {
	return e.internCodes("ls", codes)
}

// Invalidate drops the cached codes of n and every ancestor of n.
// Call it after mutating a node (value change, child grafted or
// pruned): the subtree codes of the node and its ancestors are stale,
// while interned codes and the rest of the cache stay valid — an
// unchanged subtree re-encodes to its old code, which is what lets
// incremental updates detect that a column did not actually change.
func (e *Encoder) Invalidate(n *Node) {
	if e.cache == nil {
		return
	}
	for m := n; m != nil; m = m.Parent {
		delete(e.cache, m)
	}
}

// Forget drops the per-node memoization for the subtree rooted at n.
// Interned canonical codes stay valid; streaming builders call this
// after processing a subtree so the cache does not retain discarded
// nodes.
func (e *Encoder) Forget(n *Node) {
	if e.cache == nil {
		return
	}
	n.Walk(func(m *Node) bool {
		delete(e.cache, m)
		return true
	})
}

// ListCode returns a canonical code for an ordered list of subtrees:
// two lists receive the same code iff they have equal length and
// pairwise node-value-equal members in order. This is the ordered
// variant discussed in the paper's Section 4.5 remark on element
// order (ablation experiment E7).
func (e *Encoder) ListCode(nodes []*Node) int {
	return e.collectionCode("ls", nodes, false)
}

// collectionCode encodes the members on the scratch stack, sorting
// them for multiset semantics, and interns the tagged code list.
func (e *Encoder) collectionCode(tag string, nodes []*Node, unordered bool) int {
	base := len(e.stack)
	for _, n := range nodes {
		code := e.Encode(n)
		e.stack = append(e.stack, code)
	}
	codes := e.stack[base:]
	if unordered {
		sort.Ints(codes)
	}
	code := e.internCodes(tag, codes)
	e.stack = e.stack[:base]
	return code
}

func (e *Encoder) internCodes(tag string, codes []int) int {
	k := append(e.key[:0], tag...)
	k = append(k, 0)
	return e.internKey(appendCodes(k, codes))
}

// PathValueEqual reports whether path p1 on tree t1 and path p2 on
// tree t2 are path-value equal per Definition 4: the nodes matched by
// p1 and the nodes matched by p2 admit a one-to-one node-value-equal
// correspondence (multiset equality of subtree codes). A shared
// encoder is used so codes are comparable across the two trees.
func PathValueEqual(t1 *Tree, p1 string, t2 *Tree, p2 string) bool {
	var e Encoder
	n1 := t1.NodesAt(pathOf(p1))
	n2 := t2.NodesAt(pathOf(p2))
	if len(n1) != len(n2) {
		return false
	}
	return e.MultisetCode(n1) == e.MultisetCode(n2)
}
