package logmodel

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
)

// goldenLog and goldenLines pin the TSV bytes. The lines were produced by
// the original fmt/strings.Replacer writer; the codec must reproduce them
// byte for byte.
func goldenLog() Log {
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	return Log{
		{Time: base, User: "10.0.0.1", Session: "s1", Rows: 3, Statement: "SELECT a FROM t"},
		{Time: base.Add(1500 * time.Microsecond), Rows: -1, Statement: `back\slash`},
		{Time: base.Add(999999 * time.Nanosecond), User: "u\tser", Session: "se\nss", Rows: 0, Statement: "a\tb\nc\rd"},
		{Time: base.Add(-time.Nanosecond), User: `trail\`, Session: `\x`, Rows: 9223372036854775807, Statement: `unknown \x escape and trailing \`},
		{Time: time.Date(1999, 12, 31, 23, 59, 59, 123456789, time.FixedZone("X", 3600)), Rows: -7, Statement: "\\\\t literal"},
		{Time: time.Date(2009, 1, 1, 0, 0, 0, 1, time.UTC), User: "ü", Rows: 42, Statement: "SELECT 'it''s' FROM \"T\"\r\n"},
	}
}

var goldenLines = []string{
	"2003-06-01T12:00:00.000\t10.0.0.1\ts1\t3\tSELECT a FROM t\n",
	"2003-06-01T12:00:00.001\t\t\t\tback\\\\slash\n",
	"2003-06-01T12:00:00.000\tu\\tser\tse\\nss\t0\ta\\tb\\nc\\rd\n",
	"2003-06-01T11:59:59.999\ttrail\\\\\t\\\\x\t9223372036854775807\tunknown \\\\x escape and trailing \\\\\n",
	"1999-12-31T22:59:59.123\t\t\t\t\\\\\\\\t literal\n",
	"2009-01-01T00:00:00.000\tü\t\t42\tSELECT 'it''s' FROM \"T\"\\r\\n\n",
}

func TestTSVGolden(t *testing.T) {
	l := goldenLog()
	var buf bytes.Buffer
	if err := WriteTSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), strings.Join(goldenLines, ""); got != want {
		t.Fatalf("WriteTSV bytes changed:\ngot:\n%q\nwant:\n%q", got, want)
	}
	for i := range l {
		if got := string(AppendTSV(nil, &l[i])); got != goldenLines[i] {
			t.Errorf("AppendTSV entry %d: got %q, want %q", i, got, goldenLines[i])
		}
	}

	// Decoding the golden bytes gives the entries back, up to what the
	// format keeps: UTC milliseconds, and -1 for every negative row count.
	out, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(l) {
		t.Fatalf("read %d entries, want %d", len(out), len(l))
	}
	for i, e := range out {
		w := l[i]
		w.Seq = int64(i)
		w.Time = w.Time.UTC().Truncate(time.Millisecond)
		if w.Rows < 0 {
			w.Rows = -1
		}
		if !entriesEqual(e, w) {
			t.Errorf("entry %d: got %+v, want %+v", i, e, w)
		}
	}
}

func entriesEqual(a, b Entry) bool {
	return a.Seq == b.Seq && a.Time.Equal(b.Time) && a.Time.Location() == b.Time.Location() &&
		a.User == b.User && a.Session == b.Session && a.Rows == b.Rows && a.Statement == b.Statement
}

// TestTSVDecodeNeverAliases checks that decoded strings survive the reuse
// of the scanner's buffer.
func TestTSVDecodeNeverAliases(t *testing.T) {
	var line []byte
	line = AppendTSV(line, &Entry{Time: time.Unix(0, 0), User: "user", Session: "sess", Rows: 1, Statement: "SELECT 1"})
	var d lineDecoder
	e, err := d.decode(line[:len(line)-1])
	if err != nil {
		t.Fatal(err)
	}
	for i := range line {
		line[i] = 'x'
	}
	if e.User != "user" || e.Session != "sess" || e.Statement != "SELECT 1" {
		t.Fatalf("decoded entry changed with its line: %+v", e)
	}
}

// TestTSVNameTableBounded checks that the decoder's user table starts over
// instead of growing past maxNames.
func TestTSVNameTableBounded(t *testing.T) {
	var d lineDecoder
	for i := 0; i < 3*maxNames; i++ {
		if got, want := d.name([]byte(strconv.Itoa(i))), strconv.Itoa(i); got != want {
			t.Fatalf("name %q, want %q", got, want)
		}
		if len(d.names) > maxNames {
			t.Fatalf("name table holds %d strings, bound %d", len(d.names), maxNames)
		}
	}
}

func allocLog(n int) Log {
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	l := make(Log, n)
	for i := range l {
		l[i] = Entry{
			Seq:       int64(i),
			Time:      base.Add(time.Duration(i) * 1500 * time.Microsecond),
			User:      fmt.Sprintf("10.0.%d.%d", i%7, i%13),
			Session:   strconv.Itoa(i % 5),
			Rows:      int64(i%3) - 1,
			Statement: fmt.Sprintf("SELECT objID, ra, dec FROM PhotoObj WHERE objID = %d", i),
		}
	}
	return l
}

// TestWriteTSVAllocs pins the encoder: a whole log costs a constant number
// of allocations (the writer and its buffers), none per entry.
func TestWriteTSVAllocs(t *testing.T) {
	l := allocLog(1000)
	allocs := testing.AllocsPerRun(20, func() {
		if err := WriteTSV(io.Discard, l); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Errorf("WriteTSV of %d entries: %.0f allocations, want O(1) (≤ 5)", len(l), allocs)
	}
}

// TestScanTSVLinesAllocs pins the decoder: at most 3 allocations per entry
// without escapes, the scan's fixed set-up included.
func TestScanTSVLinesAllocs(t *testing.T) {
	l := allocLog(1000)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	n := 0
	allocs := testing.AllocsPerRun(20, func() {
		n = 0
		if err := ScanTSVLines(bytes.NewReader(data), func(int, Entry) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if n != len(l) {
		t.Fatalf("scanned %d entries, want %d", n, len(l))
	}
	if per := allocs / float64(n); per > 3 {
		t.Errorf("ScanTSVLines: %.2f allocations per entry, want ≤ 3", per)
	}
}

func BenchmarkWriteTSV(b *testing.B) {
	l := allocLog(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTSV(io.Discard, l); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(l)), "ns/entry")
}

func BenchmarkScanTSVLines(b *testing.B) {
	l := allocLog(1000)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, l); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ScanTSVLines(bytes.NewReader(data), func(int, Entry) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(l)), "ns/entry")
}
