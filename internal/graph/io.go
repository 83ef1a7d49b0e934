package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary snapshot format:
//
//	magic   [4]byte "P2PG"
//	version uint32 (1)
//	numIDs  uint32
//	alive   bitmap, ceil(numIDs/8) bytes, LSB first
//	edges   uint32
//	pairs   edges × (uint32 u, uint32 v) with u < v
//
// Snapshots let expensive topologies (million-node heterogeneous graphs)
// be built once and replayed across experiments.

var magic = [4]byte{'P', '2', 'P', 'G'}

const formatVersion = 1

// WriteTo serializes the graph and returns the number of bytes written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(data any) error {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return err
		}
		n += int64(binary.Size(data))
		return nil
	}
	if err := write(magic); err != nil {
		return n, err
	}
	if err := write(uint32(formatVersion)); err != nil {
		return n, err
	}
	if err := write(uint32(g.NumIDs())); err != nil {
		return n, err
	}
	bitmap := make([]byte, (g.NumIDs()+7)/8)
	g.ForEachAlive(func(id NodeID) {
		bitmap[id/8] |= 1 << (id % 8)
	})
	if err := write(bitmap); err != nil {
		return n, err
	}
	if err := write(uint32(g.edges)); err != nil {
		return n, err
	}
	for u := 0; u < g.NumIDs(); u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < v {
				if err := write([2]uint32{uint32(u), uint32(v)}); err != nil {
					return n, err
				}
			}
		}
	}
	return n, bw.Flush()
}

// Read deserializes a graph snapshot previously produced by WriteTo.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("graph: bad magic %q", m)
	}
	var version, numIDs uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("graph: reading version: %w", err)
	}
	if version != formatVersion {
		return nil, fmt.Errorf("graph: unsupported format version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &numIDs); err != nil {
		return nil, fmt.Errorf("graph: reading node count: %w", err)
	}
	if numIDs > math.MaxInt32 {
		return nil, fmt.Errorf("graph: node count %d exceeds the int32 id space", numIDs)
	}
	// The header's count is a claim: the bitmap is read into a buffer
	// that grows with the bytes actually present, and no record is built
	// before all of it has arrived.
	size := int64(numIDs+7) / 8
	bitmap, err := io.ReadAll(io.LimitReader(br, size))
	if err != nil {
		return nil, fmt.Errorf("graph: reading alive bitmap: %w", err)
	}
	if int64(len(bitmap)) < size {
		return nil, fmt.Errorf("graph: reading alive bitmap: %w", io.ErrUnexpectedEOF)
	}
	g := NewWithNodes(int(numIDs))
	var edges uint32
	if err := binary.Read(br, binary.LittleEndian, &edges); err != nil {
		return nil, fmt.Errorf("graph: reading edge count: %w", err)
	}
	pair := make([]uint32, 2)
	for i := uint32(0); i < edges; i++ {
		if err := binary.Read(br, binary.LittleEndian, &pair); err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		u, v := NodeID(pair[0]), NodeID(pair[1])
		if !g.Alive(u) || !g.Alive(v) {
			return nil, fmt.Errorf("graph: edge %d references invalid node", i)
		}
		if !g.AddEdge(u, v) {
			return nil, fmt.Errorf("graph: duplicate or self edge %d-%d", u, v)
		}
	}
	// Kill dead nodes last so edge insertion above only sees live ones;
	// the format guarantees dead nodes have no edges.
	for id := uint32(0); id < numIDs; id++ {
		if bitmap[id/8]&(1<<(id%8)) == 0 {
			g.RemoveNode(NodeID(id))
		}
	}
	return g, nil
}
