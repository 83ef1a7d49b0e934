package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// fuzzSeed renders a small valid trace in both wire formats for the
// seed corpus, plus hand-written malformed inputs targeting the parser
// edges (bad ops, non-finite numbers, truncated rows, header games).
func fuzzSeed(f *testing.F, toWire func(*Trace) string) {
	t := &Trace{
		Name:    "seed",
		Initial: 3,
		Horizon: 10,
		Events: []Event{
			{T: 1, Session: 3, Op: Join},
			{T: 2.5, Session: 0, Op: Leave},
			{T: 9.75, Session: 3, Op: Leave},
		},
	}
	f.Add(toWire(t))
	f.Add("")
	f.Add("t,session,op\n")
	f.Add("#horizon NaN\n1,0,leave\n")
	f.Add("#initial 99999999999999999999\n")
	f.Add("1,2\n")
	f.Add("Inf,0,join\n")
	f.Add("1e309,0,j\n")
	f.Add("1,-3,l\n")
	f.Add(sparseCSV)
	f.Add(`{"schema":"p2psize-trace/v1","initial":2,"horizon":10,"events":[` +
		`{"t":1,"session":1099511627776,"op":"join"},{"t":2,"session":7,"op":"join"},{"t":3,"session":1099511627776,"op":"leave"}]}`)
	// 64-bit peer hashes, which the readers rank before narrowing to
	// int32 ids; 2^32 would wrap onto session 0.
	f.Add("#initial 1\n#horizon 10\n1,9223372036854775807,join\n2,0,leave\n" +
		"3,4611686018427387904,join\n4,9223372036854775807,leave\n5,4294967296,leave\n")
	f.Add("#initial 1\n#horizon 10\n1,4294967296,leave\n")
	f.Add(`{"schema":"p2psize-trace/v1","initial":1,"horizon":10,"events":[` +
		`{"t":1,"session":9223372036854775807,"op":"join"},{"t":1,"session":4294967296,"op":"join"},` +
		`{"t":2,"session":9223372036854775807,"op":"leave"}]}`)
	f.Add(`{"schema":"p2psize-trace/v1","initial":1,"horizon":1e999}`)
	f.Add(`{"schema":"p2psize-trace/v1","initial":-1,"horizon":5,"events":[{"t":"x"}]}`)
}

// roundTrip checks a successfully parsed trace is stable under
// re-serialization: write → read gives the identical trace. (NaN can
// never appear here — Validate rejects non-finite values — so plain
// equality is sound.)
func roundTrip(t *testing.T, tr *Trace,
	write func(*Trace, *bytes.Buffer) error, read func(*bytes.Buffer) (*Trace, error)) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(tr, &buf); err != nil {
		t.Fatalf("re-serialize valid trace: %v", err)
	}
	again, err := read(&buf)
	if err != nil {
		t.Fatalf("re-parse own output: %v\n%s", err, buf.String())
	}
	if again.Name != tr.Name || again.Initial != tr.Initial ||
		math.Float64bits(again.Horizon) != math.Float64bits(tr.Horizon) ||
		len(again.Events) != len(tr.Events) {
		t.Fatalf("round trip changed the trace: %+v vs %+v", tr, again)
	}
	for i := range tr.Events {
		if tr.Events[i] != again.Events[i] {
			t.Fatalf("round trip changed event %d: %+v vs %+v", i, tr.Events[i], again.Events[i])
		}
	}
}

func FuzzReadTraceCSV(f *testing.F) {
	fuzzSeed(f, func(tr *Trace) string {
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.String()
	})
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return // rejected input; only panics and bad accepts count
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadCSV accepted an invalid trace: %v", err)
		}
		roundTrip(t, tr,
			func(tr *Trace, buf *bytes.Buffer) error { return tr.WriteCSV(buf) },
			func(buf *bytes.Buffer) (*Trace, error) { return ReadCSV(buf) })
	})
}

func FuzzReadTraceJSON(f *testing.F) {
	fuzzSeed(f, func(tr *Trace) string {
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.String()
	})
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadJSON accepted an invalid trace: %v", err)
		}
		roundTrip(t, tr,
			func(tr *Trace, buf *bytes.Buffer) error { return tr.WriteJSON(buf) },
			func(buf *bytes.Buffer) (*Trace, error) { return ReadJSON(buf) })
	})
}
