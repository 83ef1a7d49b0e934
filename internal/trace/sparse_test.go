package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

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
		"sparse id": {Initial: 2, Horizon: 10, Events: []Event{{T: 1, Session: math.MaxInt32 - 1, Op: Join}}},
		"gap":       {Initial: 2, Horizon: 10, Events: []Event{{T: 1, Session: 3, Op: Join}}},
		"initial beyond int32 ids": {Initial: 1 << 40, Horizon: 10,
			Events: []Event{{T: 1, Session: math.MaxInt32 - 1, Op: Leave}}},
	} {
		if err := tr.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted the trace", name)
		}
	}
}

// TestEventIsSixteenBytes pins the event layout: a float64 time, an
// int32 session and the op byte, padded to 16 bytes. A trace of 23.4M
// events (a 10M-peer monitoring run) is then 374 MB, not 562.
func TestEventIsSixteenBytes(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 16 {
		t.Fatalf("trace.Event is %d bytes; want 16", size)
	}
}

func TestSessionIDBounds(t *testing.T) {
	for _, s := range []int{0, 1, math.MaxInt32 - 1} {
		if id, err := sessionID(s); err != nil || int(id) != s {
			t.Fatalf("sessionID(%d) = %d, %v", s, id, err)
		}
	}
	for _, s := range []int{-1, math.MinInt, math.MaxInt32, math.MaxInt32 + 1, 1 << 32, 1 << 40, math.MaxInt} {
		if id, err := sessionID(s); err == nil {
			t.Fatalf("sessionID(%d) = %d with no error", s, id)
		}
	}
}

// TestHashedSessionsReadAsDense writes one trace twice in each format:
// once as WriteCSV/WriteJSON do, with dense ids, and once with every
// joining session named by a 64-bit hash (at least 2^62, rising with the
// dense id, random low bits) and the rows shuffled. Both files read
// back to the one trace: the readers sort and rank the wide ids before
// they narrow them. An id of 2^32, which a plain int32 conversion would
// wrap onto initial session 0, is an error.
func TestHashedSessionsReadAsDense(t *testing.T) {
	tr, err := GenerateParallel(Config{Name: "hashed", Initial: 40, Horizon: 100,
		Session: SessionDist{Kind: Exponential, Mean: 30}}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AddFlashCrowd(50, 30, SessionDist{Kind: Exponential, Mean: 5}, xrand.New(6)); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	hash := func(s int32) int {
		if int(s) < tr.Initial {
			return int(s)
		}
		return 1<<62 + int(s)<<32 + int(rng.Uint64()>>32)
	}
	hashed := make([]jsonEvent, len(tr.Events))
	ids := map[int32]int{}
	for i, ev := range tr.Events {
		if _, ok := ids[ev.Session]; !ok {
			ids[ev.Session] = hash(ev.Session)
		}
		hashed[i] = jsonEvent{T: ev.T, Session: ids[ev.Session], Op: ev.Op.String()}
	}
	xrand.Shuffle(rng, hashed)

	var dense, wide bytes.Buffer
	if err := tr.WriteCSV(&dense); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&wide, "#name %s\n#initial %d\n#horizon %g\nt,session,op\n", tr.Name, tr.Initial, tr.Horizon)
	for _, ev := range hashed {
		fmt.Fprintf(&wide, "%s,%d,%s\n", strconv.FormatFloat(ev.T, 'g', -1, 64), ev.Session, ev.Op)
	}
	for name, text := range map[string]string{"dense CSV": dense.String(), "hashed CSV": wide.String()} {
		back, err := ReadCSV(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tracesEqual(t, tr, back)
	}

	dense.Reset()
	wide.Reset()
	if err := tr.WriteJSON(&dense); err != nil {
		t.Fatal(err)
	}
	in := jsonTrace{Schema: JSONSchema, Name: tr.Name, Initial: tr.Initial, Horizon: tr.Horizon, Events: hashed}
	if err := json.NewEncoder(&wide).Encode(in); err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string]string{"dense JSON": dense.String(), "hashed JSON": wide.String()} {
		back, err := ReadJSON(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tracesEqual(t, tr, back)
	}

	if _, err := ReadCSV(strings.NewReader("#initial 1\n#horizon 10\n1,4294967296,leave\n")); err == nil {
		t.Fatal("a leave of session 2^32 read back, as initial session 0")
	}
}

// TestFlashCrowdFillsTheIDSpace composes crowds onto a trace whose
// initial sessions nearly fill the overlay's id space: a crowd that
// ends on id MaxInt32-1 fits, one more session is an error.
func TestFlashCrowdFillsTheIDSpace(t *testing.T) {
	tr := &Trace{Initial: math.MaxInt32 - 6, Horizon: 10}
	d := SessionDist{Kind: Exponential, Mean: 1}
	if err := tr.AddFlashCrowd(1, 7, d, xrand.New(1)); err == nil {
		t.Fatal("a crowd past the id space was accepted")
	}
	if len(tr.Events) != 0 {
		t.Fatalf("the refused crowd left %d events", len(tr.Events))
	}
	if err := tr.AddFlashCrowd(1, 6, d, xrand.New(1)); err != nil {
		t.Fatal(err)
	}
	if top := tr.Sessions() - 1; top != math.MaxInt32-1 {
		t.Fatalf("the crowd's last id is %d, want %d", top, math.MaxInt32-1)
	}
}
