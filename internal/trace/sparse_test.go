package trace

import (
	"runtime"
	"strings"
	"testing"

	"p2psize/internal/xrand"
)

// sparseCSV is what an exported measurement looks like: sessions named
// by arbitrary integers (peer hashes), one of them far beyond anything a
// table could be sized by.
const sparseCSV = `#initial 3
#horizon 10
t,session,op
1,1099511627776,join
2,1,leave
3,500,join
4,1099511627776,leave
5,499,join
6,500,leave
`

func TestSparseSessionsLoadDenseAndReplay(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := ReadCSV(strings.NewReader(sparseCSV))
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(tr.Initial, 1)
	p, err := NewPlayer(tr, net)
	if err != nil {
		t.Fatal(err)
	}
	joins, leaves := p.Finish(net, xrand.New(2))
	runtime.ReadMemStats(&after)

	// Rank order: 499 -> 3, 500 -> 4, 2^40 -> 5; initial sessions keep
	// their ids.
	want := []Event{
		{1, 5, Join}, {2, 1, Leave}, {3, 4, Join}, {4, 5, Leave}, {5, 3, Join}, {6, 4, Leave},
	}
	if len(tr.Events) != len(want) {
		t.Fatalf("loaded %d events, want %d", len(tr.Events), len(want))
	}
	for i, ev := range tr.Events {
		if ev != want[i] {
			t.Fatalf("event %d is %+v, want %+v", i, ev, want[i])
		}
	}
	if joins != 3 || leaves != 3 || net.Size() != 3 {
		t.Fatalf("replay made %d joins, %d leaves, size %d; want 3, 3, 3", joins, leaves, net.Size())
	}
	// Loading, validating and replaying six events costs kilobytes (the
	// scanner's buffer is the largest item), never a table sized by an id.
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("six sparse events allocated %d bytes", got)
	}
}

func TestValidateRejectsSparseAndOversizedTraces(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"sparse id": {Initial: 2, Horizon: 10, Events: []Event{{T: 1, Session: 1 << 40, Op: Join}}},
		"gap":       {Initial: 2, Horizon: 10, Events: []Event{{T: 1, Session: 3, Op: Join}}},
		"initial beyond int32 ids": {Initial: 1 << 40, Horizon: 10,
			Events: []Event{{T: 1, Session: 1<<40 - 1, Op: Leave}}},
	} {
		if err := tr.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted the trace", name)
		}
	}
}
