// Trace exporters: Chrome trace_event JSON (loadable in Perfetto or
// chrome://tracing) and a flat span CSV. Both render spans in record
// order — the JSON hand-built and field-ordered, the CSV through the
// CSV encoder — with no map iteration anywhere, so an export is
// byte-identical across runs and worker counts.
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
)

// jstr renders s as a JSON string literal.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// A Go string always marshals; keep the exporter total anyway.
		return `"?"`
	}
	return string(b)
}

// WriteChromeJSON writes the trace in Chrome trace_event format. The
// time unit is simulated cycles presented as trace microseconds (1
// cycle = 1 µs), so viewer timelines read directly in cycles. Track
// metadata (process/thread names) is emitted first, then every span in
// record order.
func (t *Trace) WriteChromeJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[")
	first := true
	sep := func() {
		if first {
			bw.WriteString("\n")
			first = false
		} else {
			bw.WriteString(",\n")
		}
	}
	if t != nil {
		for _, tn := range t.tracks {
			sep()
			kind := "process_name"
			if tn.thread {
				kind = "thread_name"
			}
			bw.WriteString(`{"name":"` + kind + `","ph":"M","pid":` + strconv.Itoa(tn.pid) +
				`,"tid":` + strconv.Itoa(tn.tid) + `,"args":{"name":` + jstr(tn.name) + `}}`)
		}
		for i := range t.spans {
			sep()
			writeChromeEvent(bw, &t.spans[i])
		}
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// writeChromeEvent renders one span as a trace_event object with a
// fixed field order.
func writeChromeEvent(bw *bufio.Writer, s *Span) {
	bw.WriteString(`{"name":` + jstr(s.Name) +
		`,"cat":` + jstr(s.Cat) +
		`,"ph":"` + s.Phase.chromePh() +
		`","ts":` + strconv.FormatUint(s.Ts, 10))
	if s.Phase == PhaseComplete {
		bw.WriteString(`,"dur":` + strconv.FormatUint(s.Dur, 10))
	}
	bw.WriteString(`,"pid":` + strconv.Itoa(s.Pid) + `,"tid":` + strconv.Itoa(s.Tid))
	switch s.Phase {
	case PhaseBegin, PhaseEnd:
		bw.WriteString(`,"id":` + strconv.Itoa(s.ID))
	case PhaseInstant:
		bw.WriteString(`,"s":"t"`)
	}
	if len(s.Args) > 0 {
		bw.WriteString(`,"args":{`)
		for i, a := range s.Args {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(jstr(a.Key) + ":" + jstr(a.Val))
		}
		bw.WriteByte('}')
	}
	bw.WriteByte('}')
}

// SpanCSVHeader is the column layout of WriteCSV: one row per span in
// record order, args flattened to "key=value" pairs joined with ";".
var SpanCSVHeader = []string{
	"phase", "name", "cat", "pid", "tid", "id", "ts_cycles", "dur_cycles", "args",
}

// WriteCSV writes the spans as a flat CSV with SpanCSVHeader's columns.
func (t *Trace) WriteCSV(w io.Writer) error {
	enc := NewCSV(w)
	enc.Strings(SpanCSVHeader...)
	if err := enc.EndRow(); err != nil {
		return err
	}
	if t != nil {
		var args []byte // one span's "key=value" pairs, reused
		for i := range t.spans {
			s := &t.spans[i]
			enc.String(s.Phase.String())
			enc.String(s.Name)
			enc.String(s.Cat)
			enc.Int(int64(s.Pid))
			enc.Int(int64(s.Tid))
			enc.Int(int64(s.ID))
			enc.Uint(s.Ts)
			enc.Uint(s.Dur)
			args = args[:0]
			for j, a := range s.Args {
				if j > 0 {
					args = append(args, ';')
				}
				args = append(append(append(args, a.Key...), '='), a.Val...)
			}
			enc.Bytes(args)
			if err := enc.EndRow(); err != nil {
				return err
			}
		}
	}
	return enc.Flush()
}
