// The one CSV encoder behind every export: the serve report, the sweep
// result set, the span table and the counter snapshot. Cells append
// straight into a byte buffer — numbers through strconv's Append
// functions, text quoted exactly when encoding/csv would quote it — so
// a row builds no []string and a cell allocates no string. The buffer
// reaches the destination in chunks of csvChunk bytes.
package obs

import (
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// csvChunk is the buffered size at which EndRow hands its rows to the
// destination writer.
const csvChunk = 32 << 10

// CSV encodes rows into a writer with encoding/csv's default dialect:
// comma-separated, rows ended by "\n", a field quoted when it is `\.`,
// holds a quote, comma, carriage return or newline, or starts with a
// Unicode space, and an empty field never quoted. Cells append left to
// right; EndRow closes a row and Flush writes what is buffered. The
// first write error sticks: EndRow and Flush return it from then on and
// write nothing more.
type CSV struct {
	w    io.Writer
	buf  []byte
	err  error
	cell bool // the row has a cell already, so the next one needs a comma
}

// NewCSV returns an encoder writing to w. The buffer has room past
// csvChunk for the row that crosses it, so rows under 4 KB never
// regrow it.
func NewCSV(w io.Writer) *CSV {
	return &CSV{w: w, buf: make([]byte, 0, csvChunk+csvChunk/8)}
}

// sep starts a cell: a comma unless it is the row's first.
func (e *CSV) sep() {
	if e.cell {
		e.buf = append(e.buf, ',')
	}
	e.cell = true
}

// String appends a text cell.
func (e *CSV) String(s string) {
	e.sep()
	e.buf = appendField(e.buf, s)
}

// Strings appends one text cell per string — a header, typically.
func (e *CSV) Strings(ss ...string) {
	for _, s := range ss {
		e.String(s)
	}
}

// Bytes appends b as a text cell, quoted as String quotes; the encoder
// keeps no reference to b.
func (e *CSV) Bytes(b []byte) {
	e.sep()
	e.buf = appendField(e.buf, b)
}

// Int appends a signed integer cell.
func (e *CSV) Int(v int64) {
	e.sep()
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

// Uint appends an unsigned integer cell.
func (e *CSV) Uint(v uint64) {
	e.sep()
	e.buf = strconv.AppendUint(e.buf, v, 10)
}

// Bool appends "true" or "false".
func (e *CSV) Bool(v bool) {
	e.sep()
	e.buf = strconv.AppendBool(e.buf, v)
}

// Float appends v in the shortest form that reads back exactly
// (strconv's 'g' format, precision -1).
func (e *CSV) Float(v float64) {
	e.sep()
	e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64)
}

// Cycles appends v as whole cycles, byte-identical to
// strconv.FormatFloat(v, 'f', 0, 64) (see appendCycles).
func (e *CSV) Cycles(v float64) {
	e.sep()
	e.buf = appendCycles(e.buf, v)
}

// Empty appends an empty cell.
func (e *CSV) Empty() { e.sep() }

// EndRow closes the row and, once csvChunk bytes are buffered, writes
// them out. It returns the first write error the encoder has met.
func (e *CSV) EndRow() error {
	e.cell = false
	if e.err != nil {
		e.buf = e.buf[:0]
		return e.err
	}
	e.buf = append(e.buf, '\n')
	if len(e.buf) >= csvChunk {
		return e.Flush()
	}
	return nil
}

// Flush writes every buffered row and returns the first write error
// the encoder has met. An unfinished row is written as far as it goes.
func (e *CSV) Flush() error {
	if e.err != nil || len(e.buf) == 0 {
		e.buf = e.buf[:0]
		return e.err
	}
	n, err := e.w.Write(e.buf)
	if err == nil && n < len(e.buf) {
		err = io.ErrShortWrite
	}
	e.err = err
	e.buf = e.buf[:0]
	return err
}

// appendField appends f as one CSV field, quoted — with its quotes
// doubled — exactly when encoding/csv's Writer would quote it.
func appendField[T string | []byte](dst []byte, f T) []byte {
	if !needsQuotes(f) {
		return append(dst, f...)
	}
	dst = append(dst, '"')
	for {
		i := 0
		for i < len(f) && f[i] != '"' {
			i++
		}
		dst = append(dst, f[:i]...)
		if i == len(f) {
			break
		}
		dst = append(dst, '"', '"')
		f = f[i+1:]
	}
	return append(dst, '"')
}

// needsQuotes is encoding/csv's fieldNeedsQuotes for the comma
// delimiter.
func needsQuotes[T string | []byte](f T) bool {
	if len(f) == 0 {
		return false
	}
	if len(f) == 2 && f[0] == '\\' && f[1] == '.' {
		return true
	}
	for i := 0; i < len(f); i++ {
		switch f[i] {
		case '\n', '\r', '"', ',':
			return true
		}
	}
	if f[0] < utf8.RuneSelf {
		return unicode.IsSpace(rune(f[0]))
	}
	var head [utf8.UTFMax]byte
	r, _ := utf8.DecodeRune(head[:copy(head[:], f)])
	return unicode.IsSpace(r)
}

// appendCycles appends a cycle count as whole cycles, byte-identical to
// strconv.AppendFloat(dst, x, 'f', 0, 64). AppendFloat takes strconv's
// slow multi-precision path (bigFtoa) for 'f' at any fixed precision,
// so every value an int64 holds exactly — below 2^53 and without the
// sign bit, since −0 prints "-0" — goes through AppendInt instead,
// rounded half to even as AppendFloat rounds.
func appendCycles(dst []byte, x float64) []byte {
	if !math.Signbit(x) && x < 1<<53 {
		return strconv.AppendInt(dst, int64(math.RoundToEven(x)), 10)
	}
	return strconv.AppendFloat(dst, x, 'f', 0, 64)
}
