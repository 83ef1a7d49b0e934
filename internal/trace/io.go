package trace

import (
	"bufio"
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// JSONSchema identifies the JSON trace layout; bump it when the shape
// changes so tooling can detect incompatible files.
const JSONSchema = "p2psize-trace/v1"

// jsonEvent is the on-disk event form: op as a string for readability
// and hand-editing of empirical traces.
type jsonEvent struct {
	T       float64 `json:"t"`
	Session int     `json:"session"`
	Op      string  `json:"op"`
}

// fileEvent is an event as a trace file names it: Session is the file's
// own id, any integer (a 64-bit peer hash, say), until densify renumbers
// it into the overlay's id space.
type fileEvent struct {
	T       float64
	Session int
	Op      Op
}

// jsonTrace is the on-disk trace form.
type jsonTrace struct {
	Schema  string      `json:"schema"`
	Name    string      `json:"name,omitempty"`
	Initial int         `json:"initial"`
	Horizon float64     `json:"horizon"`
	Events  []jsonEvent `json:"events"`
}

// WriteJSON serializes the trace as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	out := jsonTrace{
		Schema:  JSONSchema,
		Name:    t.Name,
		Initial: t.Initial,
		Horizon: t.Horizon,
		Events:  make([]jsonEvent, len(t.Events)),
	}
	for i, ev := range t.Events {
		out.Events[i] = jsonEvent{T: ev.T, Session: int(ev.Session), Op: ev.Op.String()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON parses a trace written by WriteJSON (or authored by hand from
// an empirical measurement), normalizes and validates it.
func ReadJSON(r io.Reader) (*Trace, error) {
	var in jsonTrace
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decode JSON: %w", err)
	}
	if in.Schema != JSONSchema {
		return nil, fmt.Errorf("trace: unknown schema %q (want %q)", in.Schema, JSONSchema)
	}
	t := &Trace{Name: in.Name, Initial: in.Initial, Horizon: in.Horizon}
	evs := make([]fileEvent, len(in.Events))
	for i, ev := range in.Events {
		op, err := parseOp(ev.Op)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		evs[i] = fileEvent{T: ev.T, Session: ev.Session, Op: op}
	}
	return t.load(evs)
}

// load finishes a trace parsed from a file: canonical event order, dense
// session ids narrowed into Events, validation. The ids stay wide until
// densify has renumbered them, so a peer hash is ranked, never
// truncated.
func (t *Trace) load(evs []fileEvent) (*Trace, error) {
	// The canonical (T, Session, Op) order of eventCmp, on the file's ids
	// (only a NaN time, which Validate rejects, sorts otherwise).
	slices.SortFunc(evs, func(a, b fileEvent) int {
		return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.Session, b.Session), cmp.Compare(a.Op, b.Op))
	})
	var err error
	if t.Events, err = densify(t.Initial, evs); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// densify renumbers the joining sessions by rank, initial upward, so ids
// index a table of Initial + Joins entries whatever integers the file
// used, and narrows every id into the overlay's id space. Rank keeps the
// canonical event order; a file already dense — every written one — keeps
// its ids. Where ids are renumbered, one at or above initial that no join
// names is an error here: it could alias a renumbered session, which
// Validate would then accept.
func densify(initial int, evs []fileEvent) ([]Event, error) {
	joins, top := 0, -1
	for _, ev := range evs {
		if ev.Op == Join && ev.Session >= initial {
			joins++
		}
		top = max(top, ev.Session)
	}
	ids := make([]int, 0, joins)
	for _, ev := range evs {
		if ev.Op == Join && ev.Session >= initial {
			ids = append(ids, ev.Session)
		}
	}
	if top < initial+len(ids) {
		ids = nil // dense already
	}
	slices.Sort(ids)
	out := make([]Event, len(evs))
	for i, ev := range evs {
		s := ev.Session
		if r, ok := slices.BinarySearch(ids, s); ok {
			s = initial + r
		} else if ids != nil && s >= initial {
			return nil, fmt.Errorf("trace: event %d: session %d leaves but never joins", i, s)
		}
		id, err := sessionID(s)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		out[i] = Event{T: ev.T, Session: id, Op: ev.Op}
	}
	return out, nil
}

// WriteCSV serializes the trace as CSV: metadata in "#key value" header
// comments, then a "t,session,op" column header and one event per line.
// The format round-trips through ReadCSV and is the interchange form for
// empirical traces exported from other tools.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if t.Name != "" {
		fmt.Fprintf(bw, "#name %s\n", t.Name)
	}
	fmt.Fprintf(bw, "#initial %d\n", t.Initial)
	fmt.Fprintf(bw, "#horizon %s\n", strconv.FormatFloat(t.Horizon, 'g', -1, 64))
	fmt.Fprintln(bw, "t,session,op")
	for _, ev := range t.Events {
		fmt.Fprintf(bw, "%s,%d,%s\n",
			strconv.FormatFloat(ev.T, 'g', -1, 64), ev.Session, ev.Op)
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV, normalizes and validates
// it. Unknown "#" metadata lines are ignored so exporters can annotate
// files freely. An event line is parsed in the scanner's own buffer:
// its fields are cut out of the line, not copied out of it.
func ReadCSV(r io.Reader) (*Trace, error) {
	t := &Trace{}
	var evs []fileEvent
	comma := []byte{','}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || string(text) == "t,session,op" {
			continue
		}
		if text[0] == '#' {
			key, val, _ := strings.Cut(string(text[1:]), " ")
			var err error
			switch key {
			case "name":
				t.Name = val
			case "initial":
				t.Initial, err = strconv.Atoi(val)
			case "horizon":
				t.Horizon, err = strconv.ParseFloat(val, 64)
			}
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad #%s value %q: %w", line, key, val, err)
			}
			continue
		}
		if n := bytes.Count(text, comma) + 1; n != 3 {
			return nil, fmt.Errorf("trace: line %d: want 3 fields, got %d", line, n)
		}
		f0, rest, _ := bytes.Cut(text, comma)
		f1, f2, _ := bytes.Cut(rest, comma)
		ts, err := strconv.ParseFloat(string(f0), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time %q: %w", line, f0, err)
		}
		session, err := strconv.Atoi(string(f1))
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad session %q: %w", line, f1, err)
		}
		op, err := parseOp(string(f2))
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		evs = append(evs, fileEvent{T: ts, Session: session, Op: op})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read CSV: %w", err)
	}
	return t.load(evs)
}

// ReadFile loads a trace from path. Gzip compression is detected by
// the stream's magic bytes (1f 8b), never by a ".gz" suffix — a
// gzipped trace under any name decompresses transparently, and a
// misnamed plain file is read as-is instead of failing with a gzip
// header error. The CSV/JSON form is then sniffed from the first
// non-whitespace byte ('{' opens the JSON form; '#', the column
// header, and digits open the CSV form), with the file extension of
// the path (a trailing ".gz" stripped) as the tiebreak for content
// neither opener matches: ".csv" reads CSV, everything else JSON.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	// cr is the reader the form sniff and parsers consume: br itself
	// for plain files, a fresh buffer over the gzip stream otherwise
	// (only the decompressed bytes need new buffering).
	cr := br
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		defer gz.Close()
		cr = bufio.NewReader(gz)
	}
	// The tiebreak extension ignores a trailing ".gz" whether or not
	// the content was actually compressed ("x.csv.gz" means CSV either
	// way).
	name := path
	if strings.EqualFold(filepath.Ext(name), ".gz") {
		name = strings.TrimSuffix(name, filepath.Ext(name))
	}
	switch first := firstContentByte(cr); {
	case first == '{':
		return ReadJSON(cr)
	case first == '#' || first == 't' || (first >= '0' && first <= '9'):
		return ReadCSV(cr)
	case strings.EqualFold(filepath.Ext(name), ".csv"):
		return ReadCSV(cr)
	default:
		return ReadJSON(cr)
	}
}

// firstContentByte peeks past leading whitespace and returns the first
// content byte without consuming the reader (0 when the stream is
// empty or unreadable — the caller's extension tiebreak then decides).
func firstContentByte(br *bufio.Reader) byte {
	for n := 64; ; n *= 2 {
		buf, err := br.Peek(n)
		for _, b := range buf {
			switch b {
			case ' ', '\t', '\r', '\n':
				continue
			default:
				return b
			}
		}
		// Peek returns what is available alongside the error, so a
		// short (or empty) stream of pure whitespace lands here.
		if err != nil || len(buf) < n {
			return 0
		}
	}
}

// parseOp reads an op in any case and spacing. The error holds a clone
// of s, so that s does not escape and ReadCSV's conversion stays off the
// heap.
func parseOp(s string) (Op, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "join", "j":
		return Join, nil
	case "leave", "l":
		return Leave, nil
	default:
		return 0, fmt.Errorf("unknown op %q (want join or leave)", strings.Clone(s))
	}
}
