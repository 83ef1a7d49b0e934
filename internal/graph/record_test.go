package graph

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"p2psize/internal/xrand"
)

func TestNodeRecordIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size != 64 {
		t.Fatalf("node record is %d bytes; want 64 (one cache line)", size)
	}
	// A pointer anywhere in the record would make every page of it
	// GC-scanned.
	var pointerFree func(reflect.Type) bool
	pointerFree = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Bool:
			return true
		case reflect.Array:
			return pointerFree(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !pointerFree(typ.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	if !pointerFree(reflect.TypeOf(node{})) {
		t.Fatal("node record holds a pointer-bearing field")
	}
}

// refGraph is the obvious graph: a map of slices and an alive list, with
// the same append / swap-delete list discipline Graph documents.
type refGraph struct {
	adj   map[NodeID][]NodeID
	alive []NodeID
	ids   int
	edges int
}

func (r *refGraph) addNode() {
	r.adj[NodeID(r.ids)] = nil
	r.alive = append(r.alive, NodeID(r.ids))
	r.ids++
}

func (r *refGraph) addEdge(u, v NodeID) bool {
	if u == v || slices.Contains(r.adj[u], v) {
		return false
	}
	r.adj[u] = append(r.adj[u], v)
	r.adj[v] = append(r.adj[v], u)
	r.edges++
	return true
}

func swapDelete(a []NodeID, v NodeID) []NodeID {
	i := slices.Index(a, v)
	a[i] = a[len(a)-1]
	return a[:len(a)-1]
}

func (r *refGraph) removeEdge(u, v NodeID) bool {
	if !slices.Contains(r.adj[u], v) {
		return false
	}
	r.adj[u], r.adj[v] = swapDelete(r.adj[u], v), swapDelete(r.adj[v], u)
	r.edges--
	return true
}

func (r *refGraph) removeNode(id NodeID) {
	for _, nb := range r.adj[id] {
		r.adj[nb] = swapDelete(r.adj[nb], id)
		r.edges--
	}
	delete(r.adj, id)
	r.alive = swapDelete(r.alive, id)
}

func (r *refGraph) clone() *refGraph {
	c := &refGraph{adj: make(map[NodeID][]NodeID, len(r.adj)), alive: slices.Clone(r.alive), ids: r.ids, edges: r.edges}
	for id, a := range r.adj {
		c.adj[id] = slices.Clone(a)
	}
	return c
}

// same compares everything a caller can observe, list order included.
func (r *refGraph) same(g *Graph) error {
	if g.NumIDs() != r.ids || g.NumEdges() != r.edges || g.NumAlive() != len(r.alive) {
		return fmt.Errorf("shape: ids %d/%d edges %d/%d alive %d/%d",
			g.NumIDs(), r.ids, g.NumEdges(), r.edges, g.NumAlive(), len(r.alive))
	}
	for i, id := range r.alive {
		if g.AliveAt(i) != id {
			return fmt.Errorf("alive list slot %d: %d, want %d", i, g.AliveAt(i), id)
		}
	}
	for id := NodeID(0); int(id) < r.ids; id++ {
		_, alive := r.adj[id]
		if g.Alive(id) != alive || g.Degree(id) != len(r.adj[id]) || !slices.Equal(g.Neighbors(id), r.adj[id]) {
			return fmt.Errorf("node %d: alive %v neighbours %v, want %v %v",
				id, g.Alive(id), g.Neighbors(id), alive, r.adj[id])
		}
	}
	return g.CheckInvariants()
}

// TestRecordStoreMatchesReference drives the reference, a Graph and —
// from the split on — a deep clone and a CloneCOW of it with one
// operation stream, comparing after every step. The scripted prefix
// walks a hub across the inline boundary; the random tail keeps a small
// dense graph hovering around it.
func TestRecordStoreMatchesReference(t *testing.T) {
	ref := &refGraph{adj: map[NodeID][]NodeID{}}
	graphs := []*Graph{New(0)}
	step := func(what string, onRef func(*refGraph) bool, onGraph func(*Graph) bool) {
		t.Helper()
		want := onRef(ref)
		for i, g := range graphs {
			if got := onGraph(g); got != want {
				t.Fatalf("%s on graph %d returned %v, reference %v", what, i, got, want)
			}
			if err := ref.same(g); err != nil {
				t.Fatalf("after %s, graph %d: %v", what, i, err)
			}
		}
	}
	addNode := func() {
		step("AddNode", func(r *refGraph) bool { r.addNode(); return true },
			func(g *Graph) bool { g.AddNode(); return true })
	}
	addEdge := func(u, v NodeID) {
		step(fmt.Sprintf("AddEdge(%d,%d)", u, v), func(r *refGraph) bool { return r.addEdge(u, v) },
			func(g *Graph) bool { return g.AddEdge(u, v) })
	}
	removeEdge := func(u, v NodeID) {
		step(fmt.Sprintf("RemoveEdge(%d,%d)", u, v), func(r *refGraph) bool { return r.removeEdge(u, v) },
			func(g *Graph) bool { return g.RemoveEdge(u, v) })
	}
	removeNode := func(id NodeID) {
		step(fmt.Sprintf("RemoveNode(%d)", id), func(r *refGraph) bool { r.removeNode(id); return true },
			func(g *Graph) bool { g.RemoveNode(id); return true })
	}

	const hub, n = 0, 220
	for i := 0; i < n; i++ {
		addNode()
	}
	for v := NodeID(1); v <= inlineCap; v++ {
		addEdge(hub, v) // fills the record
	}
	addEdge(hub, inlineCap+1) // 13 -> 14: spills
	removeEdge(hub, 3)        // back to 13, then below
	removeEdge(hub, inlineCap+1)
	addEdge(hub, 3)
	addEdge(hub, 3) // duplicate: refused
	for v := NodeID(inlineCap + 1); v <= 200; v++ {
		addEdge(hub, v)
	}

	// Split: the graph so far becomes a frozen base, re-read after every
	// later step, while a deep clone and a COW clone of it carry on.
	base, frozen := graphs[0], ref.clone()
	graphs = []*Graph{base.Clone(), base.CloneCOW()}
	baseIntact := func(when string) {
		t.Helper()
		if err := frozen.same(base); err != nil {
			t.Fatalf("base changed by %s on its clones: %v", when, err)
		}
	}
	removeEdge(hub, 7) // first write to a spilled list the clone shares
	baseIntact("a spilled-list write")
	addEdge(201, 202)
	removeNode(201) // an inline list the clone shares
	baseIntact("a record write")
	removeNode(hub) // 199 half-edges and the spill slot go
	baseIntact("the hub's removal")

	// Endpoints come from the head of the alive list, a core of 30 whose
	// members change as removals swap the tail in, so degrees climb
	// through the boundary again and again.
	rng := xrand.New(11)
	spills := 0
	for i := 0; i < 4000; i++ {
		core := min(30, len(ref.alive))
		u, v := ref.alive[rng.Intn(core)], ref.alive[rng.Intn(core)]
		switch k := rng.Intn(100); {
		case k < 3:
			addNode()
		case k < 6 && len(ref.alive) > 40:
			removeNode(u)
		case k < 76 || len(ref.adj[u]) == 0:
			before := max(len(ref.adj[u]), len(ref.adj[v]))
			addEdge(u, v)
			if before == inlineCap && max(len(ref.adj[u]), len(ref.adj[v])) > inlineCap {
				spills++
			}
		default:
			removeEdge(u, ref.adj[u][rng.Intn(len(ref.adj[u]))])
		}
	}
	baseIntact("the random tail")
	if spills < 20 {
		t.Fatalf("the random tail crossed the inline boundary only %d times; the test lost its coverage", spills)
	}
}

func TestUnallocatedIDsReadAsAbsent(t *testing.T) {
	g := NewWithNodes(3)
	g.AddEdge(0, 1)
	for _, id := range []NodeID{None, -7, 3, 1 << 30} {
		if g.Alive(id) || g.Degree(id) != 0 || g.Neighbors(id) != nil || g.HasEdge(id, 0) || g.HasEdge(0, id) {
			t.Fatalf("id %d: alive %v degree %d neighbours %v", id, g.Alive(id), g.Degree(id), g.Neighbors(id))
		}
	}
}
