package obs

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// csvSeedStrings are the text cells at the edges of encoding/csv's
// quoting rules.
var csvSeedStrings = []string{
	"", `\.`, `\`, ".", "plain", "dram.reads",
	" lead", "\tlead", "\u00a0lead", "\u3000lead", "\u0085lead", "trail ", "in side",
	`"`, `a"b`, `""`, ",", "a,b", "\r", "\n", "\r\n", "a\r\nb",
	"\xff", "\xe3\x80", "a\xffb", " ",
}

// csvSeedNumbers are numeric cells at their edges: each seed fills the
// int, uint and float cells of one record.
var csvSeedNumbers = []struct {
	i int64
	u uint64
	x float64
}{
	{math.MinInt64, math.MaxUint64, math.NaN()},
	{math.MaxInt64, 0, math.Inf(1)},
	{-1, 1, math.Inf(-1)},
	{0, 0, math.Copysign(0, -1)},
	{0, 0, 5e-324},
	{0, 0, 1e21},
	{0, 0, 0.5},
	{0, 0, 2.5},
	{0, 0, 1 << 53},
	{0, 0, -1e300},
}

// encodingCSV is the reference: the record through encoding/csv's
// Writer with its defaults.
func encodingCSV(t *testing.T, records ...[]string) []byte {
	t.Helper()
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	if err := cw.WriteAll(records); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzCSVMatchesEncodingCSV: every cell kind of the encoder writes the
// bytes encoding/csv writes for the same record — text through String,
// Bytes and Strings, numbers as strconv formats them.
func FuzzCSVMatchesEncodingCSV(f *testing.F) {
	for _, s := range csvSeedStrings {
		f.Add(s, s, int64(0), uint64(0), 0.0, false)
	}
	for _, n := range csvSeedNumbers {
		f.Add("", "x", n.i, n.u, n.x, true)
	}
	f.Fuzz(func(t *testing.T, a, b string, i int64, u uint64, x float64, ok bool) {
		var got bytes.Buffer
		enc := NewCSV(&got)
		enc.String(a)
		enc.Bytes([]byte(b))
		enc.Int(i)
		enc.Uint(u)
		enc.Float(x)
		enc.Cycles(x)
		enc.Bool(ok)
		enc.Empty()
		if err := enc.EndRow(); err != nil {
			t.Fatal(err)
		}
		enc.Strings(b, a)
		if err := enc.EndRow(); err != nil {
			t.Fatal(err)
		}
		enc.String(a)
		if err := enc.EndRow(); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		want := encodingCSV(t,
			[]string{a, b,
				strconv.FormatInt(i, 10), strconv.FormatUint(u, 10),
				strconv.FormatFloat(x, 'g', -1, 64), strconv.FormatFloat(x, 'f', 0, 64),
				strconv.FormatBool(ok), ""},
			[]string{b, a},
			[]string{a})
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("encoder wrote %q, encoding/csv %q", got.Bytes(), want)
		}
	})
}

// TestFormatCyclesMatchesFormatFloat: the whole-cycles cell's integer
// fast path prints exactly what strconv.FormatFloat(x, 'f', 0, 64)
// prints — signed zero, halves rounded to even, the 2^53 boundary,
// huge, negative and non-finite values included.
func TestFormatCyclesMatchesFormatFloat(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1), 0.4, 0.5, 1.5, 2.5, 1<<52 + 0.5, 1<<53 - 1, 1 << 53, 1e300,
		math.NaN(), math.Inf(1), math.Inf(-1), -0.4, -2.5,
	}
	r := rand.New(rand.NewPCG(1, 2))
	for range 20_000 {
		xs = append(xs,
			r.Float64()*1e7,                  // the cycle range reports carry
			float64(r.Uint64N(1<<20))+0.5,    // exact halves
			math.Float64frombits(r.Uint64())) // any bit pattern
	}
	var buf []byte
	for _, x := range xs {
		buf = appendCycles(buf[:0], x)
		if got, want := string(buf), strconv.FormatFloat(x, 'f', 0, 64); got != want {
			t.Fatalf("appendCycles(%v) = %q, FormatFloat gives %q", x, got, want)
		}
	}
}

// errWrite is failAfter's error.
var errWrite = errors.New("disk full")

// failAfter accepts k bytes, then fails every write.
type failAfter struct {
	k   int
	got bytes.Buffer
}

func (w *failAfter) Write(p []byte) (int, error) {
	if room := w.k - w.got.Len(); len(p) > room {
		w.got.Write(p[:max(room, 0)])
		return max(room, 0), errWrite
	}
	return w.got.Write(p)
}

// checkWriteErrors runs an exporter into writers that fail after k
// bytes, for k at the start, inside and at the end of its output and on
// a chunk boundary, and requires the writer's error back with the
// output's first k bytes written.
func checkWriteErrors(t *testing.T, export func(io.Writer) error) {
	t.Helper()
	var full bytes.Buffer
	if err := export(&full); err != nil {
		t.Fatal(err)
	}
	n := full.Len()
	for _, k := range []int{0, 1, n / 2, n - 1, csvChunk, csvChunk + 1} {
		if k < 0 || k >= n {
			continue
		}
		w := &failAfter{k: k}
		if err := export(w); !errors.Is(err, errWrite) {
			t.Fatalf("failing after %d of %d bytes: error %v, want %v", k, n, err, errWrite)
		}
		if !bytes.Equal(w.got.Bytes(), full.Bytes()[:k]) {
			t.Fatalf("failing after %d of %d bytes: wrote %d bytes that are not the output's prefix", k, n, w.got.Len())
		}
	}
}

// TestCSVWriteErrorIsSticky: after the destination fails once, every
// later EndRow and Flush returns that first error and writes nothing
// more, even when the destination would accept it.
func TestCSVWriteErrorIsSticky(t *testing.T) {
	w := &flaky{}
	enc := NewCSV(w)
	enc.String("a")
	if err := enc.EndRow(); err != nil {
		t.Fatalf("EndRow below a chunk wrote: %v", err)
	}
	if err := enc.Flush(); !errors.Is(err, errWrite) {
		t.Fatalf("first Flush: %v, want %v", err, errWrite)
	}
	enc.String("b")
	if err := enc.Flush(); !errors.Is(err, errWrite) {
		t.Fatalf("Flush of a cell after the failure: %v, want %v", err, errWrite)
	}
	enc.String(strings.Repeat("c", 2*csvChunk))
	for i, err := range []error{enc.EndRow(), enc.Flush(), enc.EndRow(), enc.Flush()} {
		if !errors.Is(err, errWrite) {
			t.Fatalf("call %d after the failure: %v, want %v", i, err, errWrite)
		}
	}
	if w.calls != 1 || w.got.Len() != 0 {
		t.Fatalf("the encoder wrote again after the failure: %d calls, %d bytes", w.calls, w.got.Len())
	}
}

// flaky fails its first write and accepts every later one.
type flaky struct {
	calls int
	got   bytes.Buffer
}

func (w *flaky) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == 1 {
		return 0, errWrite
	}
	return w.got.Write(p)
}

// writeSizes records the size of every write it receives.
type writeSizes struct{ sizes []int }

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

// TestCSVWritesInChunks: rows reach the destination in chunks of at
// least csvChunk bytes — never one write per row, never the whole
// export in one — and only the final Flush writes a shorter one.
func TestCSVWritesInChunks(t *testing.T) {
	w := &writeSizes{}
	enc := NewCSV(w)
	row := strings.Repeat("x", 97)
	const rows = 5_000
	for i := range rows {
		enc.Int(int64(i))
		enc.String(row)
		if err := enc.EndRow(); err != nil {
			t.Fatal(err)
		}
		if i < 100 && len(w.sizes) > 0 {
			t.Fatalf("row %d reached the writer before a chunk filled", i)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(w.sizes) < 2 {
		t.Fatalf("%d writes for a %d-row export", len(w.sizes), rows)
	}
	for i, n := range w.sizes[:len(w.sizes)-1] {
		if n < csvChunk || n > csvChunk+256 {
			t.Fatalf("write %d is %d bytes, want a chunk of %d plus at most one row", i, n, csvChunk)
		}
	}
}

// TestObsExportersReturnWriteErrors: the span table and the counter
// snapshot return their writer's error.
func TestObsExportersReturnWriteErrors(t *testing.T) {
	checkWriteErrors(t, buildTrace().WriteCSV)
	m := map[string]uint64{}
	for i := range 3_000 {
		m["scope"+strconv.Itoa(i)+".counter"] = uint64(i)
	}
	checkWriteErrors(t, NewCounters(m).WriteCSV)
}

// TestCountersCSVRoundTrips: a snapshot whose keys need quoting writes
// a CSV that encoding/csv reads back to the same keys and values.
func TestCountersCSVRoundTrips(t *testing.T) {
	m := map[string]uint64{
		"a,b": 1, `q"k`: 2, " lead": 3, "dram.reads": 4, `\.`: 5, "line\nbreak": 6, "": 7,
	}
	c := NewCounters(m)
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("reading the export back: %v", err)
	}
	if len(recs) != 1+len(m) || recs[0][0] != "counter" || recs[0][1] != "value" {
		t.Fatalf("read back %d records, header %q", len(recs), recs[0])
	}
	for i, e := range c.Entries() {
		rec := recs[1+i]
		if rec[0] != e.Key || rec[1] != strconv.FormatUint(e.Value, 10) {
			t.Fatalf("row %d reads %q, want %q,%d", i, rec, e.Key, e.Value)
		}
	}
}
