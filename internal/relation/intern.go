package relation

// interner assigns dense per-column integer codes to leaf attribute
// values, hashing each distinct string once per relation: a single
// value→id map is shared by every leaf column of the relation, and
// per-column remap tables turn the relation-wide ids into per-column
// dense codes in [1, bound). Dense codes are what lets the partition
// engine build column partitions with counting buffers
// (partition.FromDense) instead of hash maps.
type interner struct {
	ids  map[string]int32 // value -> relation-wide id
	cols [][]int32        // per column: relation-wide id -> dense code (0 = unassigned)
	next []int64          // per column: next unassigned dense code
}

func newInterner(nCols int) *interner {
	in := &interner{
		ids:  make(map[string]int32),
		cols: make([][]int32, nCols),
		next: make([]int64, nCols),
	}
	for i := range in.next {
		in.next[i] = 1
	}
	return in
}

// code interns value and returns its dense code in column ai.
func (in *interner) code(ai int, v string) int64 {
	id, ok := in.ids[v]
	if !ok {
		id = int32(len(in.ids))
		in.ids[v] = id
	}
	col := in.cols[ai]
	if int(id) >= len(col) {
		// Doubling keeps interning amortized O(1) per value. A column
		// only grows when it meets an id past its end, so its length
		// stays below twice the relation's id count; int32 slots keep
		// that within the 8 bytes per id a snug int64 table would take
		// (dense codes never exceed the id count).
		grown := make([]int32, max(2*len(col), int(id)+1, 16))
		copy(grown, col)
		col = grown
		in.cols[ai] = col
	}
	if col[id] == 0 {
		col[id] = int32(in.next[ai])
		in.next[ai]++
	}
	return int64(col[id])
}

// bound returns the exclusive upper bound of column ai's dense codes.
func (in *interner) bound(ai int) int64 { return in.next[ai] }
