package core

// memTable is the open-addressed hash table keyed by memory word address
// (byte address >> 2) with which a resolver maps words to dense slot ids.
// Every load and store of the analysis hot loop lands here, so the layout
// is chosen for the trace access pattern — word addresses are dense in a
// few regions, lookups vastly outnumber deletes, and the table grows
// monotonically except under two-pass eviction:
//
//   - power-of-two capacity with Fibonacci (multiplicative) hashing, so
//     the probe start is a multiply and a shift, no modulo, and nearby
//     addresses scatter;
//   - linear probing over keys stored apart from the values, so a probe
//     sequence scans one dense cache line most of the time;
//   - occupancy in its own array, never a sentinel key or value: key 0
//     (byte addresses 0–3) is a valid word and every value is storable;
//   - tombstone-free deletion by backward shift, so deletes (two-pass
//     dead-value eviction) never lengthen later probes;
//   - doubling at 3/4 load by one full rehash. Every caller is a batch
//     analysis, so no single operation's latency matters, and the rehash
//     work amortizes to O(1) per insert.
//
// The zero memTable is ready to use. The table is not safe for concurrent
// use, matching the resolver that owns it.
type memTable struct {
	keys []uint32
	vals []int32
	used []bool
	mask uint32 // len(keys) - 1
	n    int    // live entries
}

// memTableMinCap is the capacity of a table's first allocation; must be a
// power of two.
const memTableMinCap = 256

// hash maps a word address to its home slot with Fibonacci hashing
// (2654435769 = floor(2^32/phi)).
func (t *memTable) hash(key uint32) uint32 {
	return (key * 2654435769) & t.mask
}

// find returns the slot holding key and true, or the empty slot that ends
// key's probe sequence and false. On an unallocated table the miss slot is
// meaningless, and insertAt allocates before using it.
func (t *memTable) find(key uint32) (uint32, bool) {
	if t.used == nil {
		return 0, false
	}
	i := t.hash(key)
	for t.used[i] {
		if t.keys[i] == key {
			return i, true
		}
		i = (i + 1) & t.mask
	}
	return i, false
}

// get returns the value bound to key and whether there is one.
func (t *memTable) get(key uint32) (v int32, ok bool) {
	if i, ok := t.find(key); ok {
		return t.vals[i], true
	}
	return v, false
}

// insertAt binds key, which find has just reported absent at slot i, to v.
// When the insert would cross the 3/4 load ceiling the table grows first
// and i is found again.
func (t *memTable) insertAt(i, key uint32, v int32) {
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
		i, _ = t.find(key)
	}
	t.keys[i], t.vals[i], t.used[i] = key, v, true
	t.n++
}

// grow doubles the capacity (or allocates the first arrays) and rehashes
// every entry into the new arrays.
func (t *memTable) grow() {
	old := *t
	c := max(2*len(old.keys), memTableMinCap)
	t.keys = make([]uint32, c)
	t.vals = make([]int32, c)
	t.used = make([]bool, c)
	t.mask = uint32(c - 1)
	for j, u := range old.used {
		if u {
			i, _ := t.find(old.keys[j])
			t.keys[i], t.vals[i], t.used[i] = old.keys[j], old.vals[j], true
		}
	}
}

// del removes key if present, reporting whether it was. Knuth's backward
// shift: the hole moves forward through the probe cluster, pulling back
// every entry whose home slot permits it, until the cluster ends, so no
// tombstone is left behind.
func (t *memTable) del(key uint32) bool {
	i, ok := t.find(key)
	if !ok {
		return false
	}
	j := i
	for {
		t.used[i] = false
		for {
			j = (j + 1) & t.mask
			if !t.used[j] {
				t.n--
				return true
			}
			h := t.hash(t.keys[j])
			// The entry at j may fill the hole at i only if its home h
			// does not lie cyclically inside (i, j] — otherwise moving it
			// would break its own probe chain.
			if (j-h)&t.mask >= (j-i)&t.mask {
				t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
				t.used[i] = true
				i = j
				break
			}
		}
	}
}

// forEach visits every live entry. Visit order is unspecified; callers
// fold entries into order-independent accumulators or sort.
func (t *memTable) forEach(fn func(key uint32, v int32)) {
	for i, u := range t.used {
		if u {
			fn(t.keys[i], t.vals[i])
		}
	}
}

// clone deep-copies the table.
func (t *memTable) clone() *memTable {
	c := *t
	c.keys = append([]uint32(nil), t.keys...)
	c.vals = append([]int32(nil), t.vals...)
	c.used = append([]bool(nil), t.used...)
	return &c
}
