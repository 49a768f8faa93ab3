package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// tablePut binds key to v through find and insertAt, as a resolver's first
// touch does, and returns the previous value and whether there was one.
func tablePut(t *memTable, key uint32, v int32) (int32, bool) {
	i, ok := t.find(key)
	if ok {
		old := t.vals[i]
		t.vals[i] = v
		return old, true
	}
	t.insertAt(i, key, v)
	return 0, false
}

// tableOps drives a memTable and a map reference through the same
// operation sequence and reports the first divergence. Keys are drawn from
// a small space so puts, overwrites and deletes collide often, key 0 recurs
// on a fixed cadence, and the table is forced through several doublings
// with deletes interleaved.
func tableOps(t *testing.T, seed int64, ops int, keySpace uint32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var tab memTable
	ref := make(map[uint32]int32)
	for i := 0; i < ops; i++ {
		key := rng.Uint32() % keySpace
		if i%101 == 0 {
			key = 0
		}
		switch rng.Intn(10) {
		case 0, 1: // delete
			_, want := ref[key]
			if had := tab.del(key); had != want {
				t.Fatalf("seed %d op %d: del(%d) = %v want %v", seed, i, key, had, want)
			}
			delete(ref, key)
		case 2: // get
			got, ok := tab.get(key)
			want, wantOK := ref[key]
			if ok != wantOK || got != want {
				t.Fatalf("seed %d op %d: get(%d) = %v,%v want %v,%v", seed, i, key, got, ok, want, wantOK)
			}
		default: // put
			v := int32(i)
			old, had := tablePut(&tab, key, v)
			wantOld, wantHad := ref[key]
			ref[key] = v
			if had != wantHad || old != wantOld {
				t.Fatalf("seed %d op %d: put(%d) returned %v,%v want %v,%v", seed, i, key, old, had, wantOld, wantHad)
			}
		}
		if tab.n != len(ref) {
			t.Fatalf("seed %d op %d: len = %d want %d", seed, i, tab.n, len(ref))
		}
	}
	checkTable(t, &tab, ref)
}

// checkTable requires tab and ref to hold the same entries, both ways, and
// forEach to visit each entry exactly once.
func checkTable(t *testing.T, tab *memTable, ref map[uint32]int32) {
	t.Helper()
	if tab.n != len(ref) {
		t.Fatalf("len = %d want %d", tab.n, len(ref))
	}
	seen := make(map[uint32]bool, len(ref))
	tab.forEach(func(key uint32, v int32) {
		if seen[key] {
			t.Fatalf("forEach visited key %d twice", key)
		}
		seen[key] = true
		if want, ok := ref[key]; !ok || want != v {
			t.Fatalf("forEach visited (%d,%v), reference has %v,%v", key, v, want, ok)
		}
	})
	if len(seen) != len(ref) {
		t.Fatalf("forEach visited %d entries, want %d", len(seen), len(ref))
	}
	for key, want := range ref {
		if got, ok := tab.get(key); !ok || got != want {
			t.Fatalf("get(%d) = %v,%v want %v,true", key, got, ok, want)
		}
	}
}

// TestDifferentialMemTable proves the open-addressed table is
// observation-equivalent to a map across collision-heavy random workloads
// that exercise backward-shift deletion and growth.
func TestDifferentialMemTable(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tableOps(t, seed, 20000, 1<<10) // dense: constant collisions, many overwrites
		tableOps(t, seed, 20000, 1<<20) // sparse: growth-dominated
	}
}

// quickTable drives the map equivalence through testing/quick with
// arbitrary key sets, including key 0 (a valid word address — byte address
// 0–3 — which an open-addressed table must not confuse with an empty slot).
func quickTable(t *testing.T) {
	t.Helper()
	check := func(keys []uint32) bool {
		var tab memTable
		ref := make(map[uint32]int32)
		for i, k := range keys {
			tablePut(&tab, k, int32(i))
			ref[k] = int32(i)
		}
		// Delete every other inserted key (duplicates make some deletes
		// no-ops in both structures).
		for i, k := range keys {
			if i%2 == 0 {
				had := tab.del(k)
				_, want := ref[k]
				if had != want {
					return false
				}
				delete(ref, k)
			}
		}
		if tab.n != len(ref) {
			return false
		}
		for k, want := range ref {
			if got, ok := tab.get(k); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Explicit key-zero case, with the zero value stored.
	var tab memTable
	if _, ok := tab.get(0); ok {
		t.Fatal("empty table claims key 0 is present")
	}
	if tab.del(0) {
		t.Fatal("del(0) on an empty table reported present")
	}
	tablePut(&tab, 0, 0)
	if v, ok := tab.get(0); !ok || v != 0 {
		t.Fatalf("get(0) = %v,%v want 0,true", v, ok)
	}
	if !tab.del(0) {
		t.Fatal("del(0) reported absent")
	}
	if _, ok := tab.get(0); ok || tab.n != 0 {
		t.Fatalf("key 0 still present (len %d) after deleting the only entry", tab.n)
	}
}

// TestMemTableQuick runs the testing/quick equivalence.
func TestMemTableQuick(t *testing.T) {
	quickTable(t)
}

// homedKeys returns n distinct non-zero keys whose home slot under mask is
// home (brute-forced; the Fibonacci multiplier spreads hits evenly so the
// search stays tiny).
func homedKeys(home, mask uint32, n int) []uint32 {
	keys := make([]uint32, 0, n)
	for k := uint32(1); len(keys) < n; k++ {
		if (k*2654435769)&mask == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestMemTableClusterGrowth pushes crafted probe clusters through the
// first doubling and deletes through them on both sides of it, checking
// map equivalence after every put and delete. The clusters are colliding
// keys around fixed home slots, plus one cluster that wraps across the
// array end; keys are homed under the grown table's mask, so each cluster
// keeps its shape in both tables (home h in the grown table is home
// h mod memTableMinCap in the first). Deleting from the wrap-around cluster
// is the deterministic check that backward shift pulls entries back across
// the array end without breaking a probe chain.
func TestMemTableClusterGrowth(t *testing.T) {
	const grownMask = 2*memTableMinCap - 1
	var keys []uint32
	// Clusters [b-6, b+5] around home slots 58, 122 and 186.
	for b := uint32(64); b < memTableMinCap; b += 64 {
		keys = append(keys, homedKeys(b-6, grownMask, 12)...)
	}
	// Wrap-around cluster homed 4 slots before the grown array's end, so it
	// also starts 4 slots before the first array's end: it spans slots
	// [252..255, 0..5] before the doubling and [508..511, 0..5] after.
	wrap := homedKeys(2*memTableMinCap-4, grownMask, 10)
	keys = append(keys, wrap...)
	// Filler homed clear of the crafted clusters, enough that the next
	// insert crosses the 3/4 load ceiling.
	for h := uint32(8); len(keys) < 3*memTableMinCap/4 && h < memTableMinCap; h += 2 {
		if h%64 < 8 || h%64 > 48 {
			continue
		}
		keys = append(keys, homedKeys(h, grownMask, 2)...)
	}

	var tab memTable
	ref := make(map[uint32]int32)
	put := func(k uint32, v int32) {
		t.Helper()
		tablePut(&tab, k, v)
		ref[k] = v
		checkTable(t, &tab, ref)
	}
	del := func(k uint32) {
		t.Helper()
		if !tab.del(k) {
			t.Fatalf("del(%d) reported absent", k)
		}
		delete(ref, k)
		checkTable(t, &tab, ref)
	}
	// wrapsEnd guards the crafting: the wrap cluster must hold slots at
	// both ends of the current array.
	wrapsEnd := func() {
		t.Helper()
		lo, hi := false, false
		for _, k := range wrap {
			i, _ := tab.find(k)
			lo = lo || i < 8
			hi = hi || i >= uint32(len(tab.keys)-4)
		}
		if !lo || !hi {
			t.Fatalf("the wrap cluster does not cross the end of a %d-slot array", len(tab.keys))
		}
	}
	for i, k := range keys {
		put(k, int32(i+1))
	}
	if len(tab.keys) != memTableMinCap {
		t.Fatalf("table grew to %d slots before the load ceiling was crossed", len(tab.keys))
	}
	wrapsEnd()
	// Before the doubling: delete each wrap-cluster key and put it back,
	// so every position of the cluster is vacated once.
	for i, k := range wrap {
		del(k)
		put(k, int32(-i))
	}
	if len(tab.keys) != memTableMinCap {
		t.Fatalf("table grew to %d slots at constant load", len(tab.keys))
	}

	// Crafted keys are brute-forced from 1 upward, so anything >= 1<<20 is
	// fresh.
	next := uint32(1 << 20)
	put(next, -1)
	next++
	if len(tab.keys) != 2*memTableMinCap {
		t.Fatalf("crossing the load ceiling left %d slots, want %d", len(tab.keys), 2*memTableMinCap)
	}
	wrapsEnd()
	// After the doubling: delete every crafted key, in reverse insertion
	// order, and insert a fresh key after each delete.
	for step, i := 1, len(keys)-1; i >= 0; step, i = step+1, i-1 {
		del(keys[i])
		put(next, int32(1000+step))
		next++
	}
}

// TestMemTableClone verifies that a clone is a deep copy: mutating the
// original after a clone leaves the clone intact.
func TestMemTableClone(t *testing.T) {
	var tab memTable
	for i := uint32(0); i < 1000; i++ {
		tablePut(&tab, i, int32(i))
	}
	c := tab.clone()
	for i := uint32(0); i < 1000; i += 2 {
		tab.del(i)
	}
	tablePut(&tab, 5000, -1)
	if c.n != 1000 {
		t.Fatalf("clone len = %d want 1000 after mutating original", c.n)
	}
	for i := uint32(0); i < 1000; i++ {
		if v, ok := c.get(i); !ok || v != int32(i) {
			t.Fatalf("clone get(%d) = %v,%v want %d", i, v, ok, i)
		}
	}
}
