package logmodel

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzTSVRoundTrip checks that any statement/user/session content survives
// a TSV write-read cycle byte-for-byte.
func FuzzTSVRoundTrip(f *testing.F) {
	f.Add("SELECT a FROM t", "10.0.0.1", "s1", int64(5))
	f.Add("multi\nline\tstmt\\", "", "", int64(-3))
	f.Add("", "u", "s", int64(0))
	f.Fuzz(func(t *testing.T, stmt, user, sess string, rows int64) {
		if rows < 0 {
			rows = -1
		}
		in := Log{{Time: time.Unix(99, 0).UTC(), User: user, Session: sess, Rows: rows, Statement: stmt}}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, in); err != nil {
			t.Fatal(err)
		}
		out, err := ReadTSV(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if stmt == "" && user == "" && sess == "" && rows == -1 {
			return // a fully empty entry may serialize to a blank-ish line
		}
		if len(out) != 1 {
			t.Fatalf("entries: %d", len(out))
		}
		e := out[0]
		if e.Statement != stmt || e.User != user || e.Session != sess || e.Rows != rows {
			t.Fatalf("mismatch: %+v", e)
		}
	})
}

// legacyParseTSVLine is the original SplitN-based line parser, kept as the
// oracle for the decoder's accepted set.
func legacyParseTSVLine(line string) (Entry, error) {
	parts := strings.SplitN(line, "\t", 5)
	if len(parts) != 5 {
		return Entry{}, fmt.Errorf("expected 5 tab-separated fields, got %d", len(parts))
	}
	t, err := time.Parse(TimeFormat, parts[0])
	if err != nil {
		return Entry{}, fmt.Errorf("bad timestamp: %v", err)
	}
	rows := int64(-1)
	if parts[3] != "" {
		rows, err = strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return Entry{}, fmt.Errorf("bad row count: %v", err)
		}
	}
	return Entry{
		Time:      t,
		User:      unescape(parts[1]),
		Session:   unescape(parts[2]),
		Rows:      rows,
		Statement: unescape(parts[4]),
	}, nil
}

// FuzzTSVLine checks the decoder over arbitrary line bytes: it never
// panics, it accepts exactly the lines the original parser accepted, with
// the same entry and error text, and an accepted entry re-encodes with
// AppendTSV and decodes to itself. The format writes every negative row
// count as an empty column, so such a count comes back as -1 (unknown).
func FuzzTSVLine(f *testing.F) {
	for _, l := range goldenLines {
		f.Add([]byte(strings.TrimSuffix(l, "\n")))
	}
	f.Add([]byte("2003-06-01T12:00:00,123\tu\ts\t-3\tSELECT 1"))
	f.Add([]byte("2003-02-29T12:00:00.000\tu\ts\t+5\tx"))
	f.Add([]byte("2004-02-29T24:00:00.000\t\t\t\t"))
	f.Add([]byte("2003-06-01T1:00:00.000\tu\ts\t1"))
	f.Add([]byte("0000-01-01T00:00:00.000\ta\\\tb\\q\t99999999999999999999\tc\\"))
	f.Fuzz(func(t *testing.T, line []byte) {
		if len(line) == 0 || bytes.IndexByte(line, '\n') >= 0 {
			return // the scanner never hands the decoder such a line
		}
		var d lineDecoder
		got, err := d.decode(line)
		want, werr := legacyParseTSVLine(string(line))
		if (err == nil) != (werr == nil) {
			t.Fatalf("accept mismatch for %q: decoder err %v, original err %v", line, err, werr)
		}
		if err != nil {
			if err.Error() != werr.Error() {
				t.Fatalf("error text for %q: %q, original %q", line, err, werr)
			}
			return
		}
		if !entriesEqual(got, want) {
			t.Fatalf("entry for %q: %+v, original %+v", line, got, want)
		}
		enc := AppendTSV(nil, &got)
		back, err := d.decode(enc[:len(enc)-1])
		if err != nil {
			t.Fatalf("re-encoded %q does not decode: %v", enc, err)
		}
		if got.Rows < 0 {
			got.Rows = -1
		}
		if !entriesEqual(back, got) {
			t.Fatalf("round trip of %q: %+v, want %+v", line, back, got)
		}
	})
}
