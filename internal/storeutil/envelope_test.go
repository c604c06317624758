package storeutil

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

func testEnvelope(t *testing.T) *Envelope {
	t.Helper()
	e := &Envelope{Dir: t.TempDir(), Schema: "test-store/1", Name: "test store",
		Sections: 3, Suffix: ".entry.jsonl", TempPrefix: ".entry-"}
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEnvelopeRoundTrip: sections come back byte for byte, an absent
// (nil) section stays nil and an empty one stays non-nil.
func TestEnvelopeRoundTrip(t *testing.T) {
	e := testEnvelope(t)
	want := [][]byte{[]byte(`{"a":1}`), nil, {}}
	n, err := e.Write("k", want)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(e.Path("k")); err != nil || info.Size() != int64(n) {
		t.Fatalf("Write reported %d bytes, file is %v (%v)", n, info, err)
	}
	var got [][]byte
	st, err := e.Read("k", func(sec [][]byte) error { got = sec; return nil })
	if err != nil || st.Bytes != n || st.Quarantined {
		t.Fatalf("Read = (%+v, %v)", st, err)
	}
	if len(got) != 3 || !bytes.Equal(got[0], want[0]) || got[1] != nil || got[2] == nil || len(got[2]) != 0 {
		t.Fatalf("sections %q, want %q", got, want)
	}
}

// TestEnvelopeMissIsClean: an absent entry neither errors nor decodes.
func TestEnvelopeMissIsClean(t *testing.T) {
	e := testEnvelope(t)
	st, err := e.Read("absent", func([][]byte) error { t.Fatal("decode called on a miss"); return nil })
	if err != nil || st != (ReadStats{}) {
		t.Fatalf("Read(absent) = (%+v, %v)", st, err)
	}
}

// TestEnvelopeQuarantinesInvalid: every validation failure — including
// one the store's decoder reports — moves the file aside.
func TestEnvelopeQuarantinesInvalid(t *testing.T) {
	e := testEnvelope(t)
	header := func(h Header) []byte {
		line, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		return append(line, '\n')
	}
	cases := map[string]struct {
		file   []byte
		decode error
		want   string
	}{
		"no-header":      {[]byte(`{"schema"`), nil, "truncated header"},
		"foreign-schema": {header(Header{Schema: "test-store/0", Key: "k", Sections: []int64{0, 0, 0}}), nil, "schema"},
		"key":            {header(Header{Schema: "test-store/1", Key: "other", Sections: []int64{0, 0, 0}}), nil, "key mismatch"},
		"section-count":  {header(Header{Schema: "test-store/1", Key: "k", Sections: []int64{0}}), nil, "sections, want 3"},
		"bad-length":     {header(Header{Schema: "test-store/1", Key: "k", Sections: []int64{-2, 0, 0}}), nil, "out of range"},
		"truncated":      {header(Header{Schema: "test-store/1", Key: "k", Sections: []int64{4, 0, 0}}), nil, "truncated?"},
		"crc":            {append(header(Header{Schema: "test-store/1", Key: "k", Sections: []int64{1, -1, -1}}), 'x'), nil, "CRC"},
		"decode":         {header(Header{Schema: "test-store/1", Key: "k", Sections: []int64{0, 0, 0}}), errors.New("bad body"), "bad body"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(e.Path("k"), tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := e.Read("k", func([][]byte) error { return tc.decode })
			if err == nil || !strings.Contains(err.Error(), tc.want) || !st.Quarantined {
				t.Fatalf("Read = (%+v, %v), want a quarantined %q error", st, err, tc.want)
			}
			if _, serr := os.Stat(e.Path("k") + QuarantineSuffix); serr != nil {
				t.Fatal("no quarantined copy")
			}
		})
	}
}
