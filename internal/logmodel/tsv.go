package logmodel

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The TSV codec: one line per entry, five tab-separated columns
//
//	time  user  session  rows  statement
//
// with time in TimeFormat (UTC, millisecond precision), rows empty when
// unknown, and backslash, tab, newline and carriage return inside the text
// columns escaped as \\, \t, \n and \r. AppendTSV is the only encoder and
// lineDecoder the only decoder; every reader and writer of the format goes
// through them.

// TimeFormat is the on-disk timestamp layout.
const TimeFormat = "2006-01-02T15:04:05.000"

// escapable lists the bytes appendEscaped rewrites.
const escapable = "\\\t\n\r"

// AppendTSV appends e as one TSV line, newline included, to dst and returns
// the extended buffer. It allocates only when dst must grow.
func AppendTSV(dst []byte, e *Entry) []byte {
	dst = appendTime(dst, e.Time)
	dst = append(dst, '\t')
	dst = appendEscaped(dst, e.User)
	dst = append(dst, '\t')
	dst = appendEscaped(dst, e.Session)
	dst = append(dst, '\t')
	if e.Rows >= 0 {
		dst = strconv.AppendInt(dst, e.Rows, 10)
	}
	dst = append(dst, '\t')
	dst = appendEscaped(dst, e.Statement)
	return append(dst, '\n')
}

// appendTime appends t in TimeFormat, in UTC, with the milliseconds
// truncated as time.Format truncates them. Years outside 0–9999 are left
// to time.Format.
func appendTime(dst []byte, t time.Time) []byte {
	t = t.UTC()
	year, month, day := t.Date()
	if year < 0 || year > 9999 {
		return t.AppendFormat(dst, TimeFormat)
	}
	hour, minute, sec := t.Clock()
	dst = appendDigits(dst, year, 4)
	dst = append(dst, '-')
	dst = appendDigits(dst, int(month), 2)
	dst = append(dst, '-')
	dst = appendDigits(dst, day, 2)
	dst = append(dst, 'T')
	dst = appendDigits(dst, hour, 2)
	dst = append(dst, ':')
	dst = appendDigits(dst, minute, 2)
	dst = append(dst, ':')
	dst = appendDigits(dst, sec, 2)
	dst = append(dst, '.')
	return appendDigits(dst, t.Nanosecond()/1e6, 3)
}

// appendDigits appends the non-negative n zero-padded to width digits.
func appendDigits(dst []byte, n, width int) []byte {
	var buf [4]byte
	for i := width - 1; i >= 0; i-- {
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return append(dst, buf[:width]...)
}

// appendEscaped appends s with the escapable bytes replaced, so one entry
// stays one TSV line. Text without any of them is copied in one append.
func appendEscaped(dst []byte, s string) []byte {
	for {
		i := strings.IndexAny(s, escapable)
		if i < 0 {
			return append(dst, s...)
		}
		dst = append(dst, s[:i]...)
		switch s[i] {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\t':
			dst = append(dst, '\\', 't')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		}
		s = s[i+1:]
	}
}

// unescape reverses appendEscaped. It returns s itself when s holds no
// backslash. A backslash before any other byte, or at the very end, is
// kept as written.
func unescape(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 >= len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case 't':
			b.WriteByte('\t')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// Encoder writes entries as TSV lines through one buffered writer and one
// reused line buffer, so a long-lived writer (a daemon's clean log)
// allocates nothing per entry.
type Encoder struct {
	w    *bufio.Writer
	line []byte
}

// NewEncoder returns an Encoder writing to w. Call Flush to push buffered
// lines through.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriter(w), line: make([]byte, 0, 512)}
}

// Encode buffers e as one TSV line.
func (enc *Encoder) Encode(e *Entry) error {
	enc.line = AppendTSV(enc.line[:0], e)
	_, err := enc.w.Write(enc.line)
	return err
}

// Flush writes every buffered line to the underlying writer.
func (enc *Encoder) Flush() error { return enc.w.Flush() }

// WriteTSV writes the log as tab-separated lines:
// time, user, session, rows, statement.
func WriteTSV(w io.Writer, l Log) error {
	enc := NewEncoder(w)
	for i := range l {
		if err := enc.Encode(&l[i]); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// LineError is a TSV parse failure that knows which input line it came
// from. Line counts every line of the input, including blank lines the
// scanner skips — it is the number an editor or a `sed -n Np` would show.
type LineError struct {
	Line int
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("logmodel: line %d: %v", e.Line, e.Err) }

func (e *LineError) Unwrap() error { return e.Err }

// ScanTSV streams a TSV log entry by entry, calling fn for each record —
// constant memory regardless of log size. Seq numbers are assigned in file
// order. fn returning an error stops the scan and propagates the error.
// Parse failures are returned as *LineError.
func ScanTSV(r io.Reader, fn func(Entry) error) error {
	return ScanTSVLines(r, func(_ int, e Entry) error { return fn(e) })
}

// ScanBufferSize is the initial line buffer of the log scanners. Lines up
// to MaxLineBytes still fit: the buffer doubles on demand. A small start
// keeps a one-entry request body from paying for a large buffer.
const (
	ScanBufferSize = 4 << 10
	MaxLineBytes   = 16 << 20
)

// ScanTSVLines is ScanTSV with the input's real 1-based line number passed
// to the callback. Entry indices and line numbers diverge whenever the
// input has blank lines, so any caller reporting a position to a human (or
// an HTTP client retrying a failed batch) needs the line, not the count of
// entries seen so far.
//
// Decoded entries never alias the scanner's buffer: each statement is one
// string of its own, and users and sessions come from a small table of
// strings the scan has already seen, so a repeated identity costs nothing.
func ScanTSVLines(r io.Reader, fn func(line int, e Entry) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, ScanBufferSize), MaxLineBytes)
	var d lineDecoder
	lineNo := 0
	seq := int64(0)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		e, err := d.decode(line)
		if err != nil {
			return &LineError{Line: lineNo, Err: err}
		}
		e.Seq = seq
		seq++
		if err := fn(lineNo, e); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ReadTSV reads a log previously written by WriteTSV. Seq numbers are
// assigned in file order.
func ReadTSV(r io.Reader) (Log, error) {
	var out Log
	err := ScanTSV(r, func(e Entry) error {
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// maxNames bounds a decoder's table of user and session strings; a full
// table starts over, so a log with endless distinct users costs no more
// than one without the table.
const maxNames = 4096

// lineDecoder decodes TSV lines. It remembers the user and session strings
// it has produced, so that a repeated identity is not allocated again.
type lineDecoder struct {
	names map[string]string
}

// decode parses one non-empty line. The entry it returns holds no
// reference to line.
func (d *lineDecoder) decode(line []byte) (Entry, error) {
	var tab [4]int
	from := 0
	for k := range tab {
		i := bytes.IndexByte(line[from:], '\t')
		if i < 0 {
			return Entry{}, fmt.Errorf("expected 5 tab-separated fields, got %d", k+1)
		}
		tab[k] = from + i
		from = tab[k] + 1
	}
	t, err := parseTime(line[:tab[0]])
	if err != nil {
		return Entry{}, fmt.Errorf("bad timestamp: %v", err)
	}
	rows, err := parseRows(line[tab[2]+1 : tab[3]])
	if err != nil {
		return Entry{}, fmt.Errorf("bad row count: %v", err)
	}
	return Entry{
		Time:      t,
		User:      d.name(line[tab[0]+1 : tab[1]]),
		Session:   d.name(line[tab[1]+1 : tab[2]]),
		Rows:      rows,
		Statement: unescape(string(line[tab[3]+1:])),
	}, nil
}

// name returns the unescaped text of a user or session column, reusing the
// string of an earlier identical column.
func (d *lineDecoder) name(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if bytes.IndexByte(b, '\\') >= 0 {
		return unescape(string(b))
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	if d.names == nil {
		d.names = make(map[string]string)
	} else if len(d.names) >= maxNames {
		clear(d.names)
	}
	s := string(b)
	d.names[s] = s
	return s
}

// parseRows decodes the rows column: empty is unknown (-1).
func parseRows(b []byte) (int64, error) {
	if len(b) == 0 {
		return -1, nil
	}
	return strconv.ParseInt(string(b), 10, 64)
}

// parseTime decodes the time column. The canonical layout is decoded
// without allocating; anything else goes to time.Parse, so the accepted
// set and the results are exactly time.Parse's.
func parseTime(b []byte) (time.Time, error) {
	if t, ok := parseTimeFast(b); ok {
		return t, nil
	}
	return time.Parse(TimeFormat, string(b))
}

// parseTimeFast decodes "2006-01-02T15:04:05.000" written with digits
// only. It reports false for anything else, including a field out of
// range, and leaves those to time.Parse.
func parseTimeFast(b []byte) (time.Time, bool) {
	if len(b) != len(TimeFormat) || b[4] != '-' || b[7] != '-' || b[10] != 'T' ||
		b[13] != ':' || b[16] != ':' || b[19] != '.' {
		return time.Time{}, false
	}
	ok := true
	num := func(lo, hi int) int {
		n := 0
		for _, c := range b[lo:hi] {
			if c < '0' || c > '9' {
				ok = false
			}
			n = n*10 + int(c-'0')
		}
		return n
	}
	year, month, day := num(0, 4), num(5, 7), num(8, 10)
	hour, minute, sec, ms := num(11, 13), num(14, 16), num(17, 19), num(20, 23)
	if !ok || month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour > 23 || minute > 59 || sec > 59 {
		return time.Time{}, false
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, ms*1e6, time.UTC), true
}

// daysIn is the length of a month in the proleptic Gregorian calendar.
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}
