package datatree

import "testing"

// TestArenaChildren checks that child lists of every size come back
// as exact copies that do not share room with one another.
func TestArenaChildren(t *testing.T) {
	var a Arena
	var lists [][]*Node
	for n := 0; n <= 3*maxKidsChunk/4; n += 7 {
		kids := make([]*Node, n)
		for i := range kids {
			kids[i] = a.New()
			kids[i].Key = n
		}
		c := a.Children(kids)
		if len(c) != n || cap(c) != n {
			t.Fatalf("Children of %d: len %d cap %d", n, len(c), cap(c))
		}
		lists = append(lists, append(c, &Node{Key: -1})) // must not write into a neighbour
	}
	for _, l := range lists {
		n := len(l) - 1
		for _, k := range l[:n] {
			if k.Key != n {
				t.Fatalf("list of %d holds a node of list %d", n, k.Key)
			}
		}
	}
}
