package traffic

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/storeutil"
	"repro/internal/trace"
)

// storeTestStream records a real (small) grid simulation so store tests
// exercise genuine trajectory payloads, not synthetic records.
func storeTestStream(t *testing.T) *trace.Collector {
	t.Helper()
	g, err := NewGridNetwork(GridSpec{
		Rows: 2, Cols: 2, BlockM: 120, Lanes: 1, LaneWidthM: 3.2,
		SpeedLimitMPS: 14, Green: 20 * time.Second, AllRed: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Collector{}
	specs := []VehicleSpec{
		{Driver: DefaultDriver(), Link: 0, Lane: 0, ArcM: 10},
		{Driver: DefaultDriver(), Link: 1, Lane: 0, ArcM: 30},
	}
	s, err := New(Config{Network: g.Network, Seed: 5, Recorder: rec}, specs)
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(20 * time.Second)
	if len(rec.Vehicles) == 0 {
		t.Fatal("test stream recorded no samples")
	}
	return rec
}

func jsonlBytes(t *testing.T, col *trace.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStoreRoundTripByteIdentity(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	const key = "grid|seed=5|veh=2|dur=20s"
	if err := st.Save(key, col); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("saved key loads as a miss")
	}
	// The loaded stream must serialize to the exact bytes of the
	// original — the property that makes disk-served replays
	// byte-identical to the in-memory cache's round-trip.
	if !bytes.Equal(jsonlBytes(t, got), jsonlBytes(t, col)) {
		t.Fatal("store round-trip changed the JSONL byte stream")
	}
}

func TestStoreMissOnAbsentKey(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col, err := st.Load("never-saved")
	if err != nil {
		t.Fatalf("absent key must be a clean miss, got error %v", err)
	}
	if col != nil {
		t.Fatal("absent key returned a stream")
	}
}

// TestStoreKeyCollisionRejected plants a file at exactly the path another
// key hashes to; the embedded full key must unmask the collision.
func TestStoreKeyCollisionRejected(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	if err := st.Save("key-A", col); err != nil {
		t.Fatal(err)
	}
	// Simulate a hash collision: key-B resolving to key-A's file.
	if err := os.Rename(st.Path("key-A"), st.Path("key-B")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("key-B"); err == nil || !strings.Contains(err.Error(), "key mismatch") {
		t.Fatalf("collided key loaded without a key-mismatch error: %v", err)
	}
}

func TestStoreSchemaVersioning(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	const key = "versioned"
	if err := st.Save(key, col); err != nil {
		t.Fatal(err)
	}
	// Rewrite the header with a future schema; the body stays valid.
	data, err := os.ReadFile(st.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	var hdr storeutil.Header
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		t.Fatal(err)
	}
	hdr.Schema = "traffic-trace-store/999"
	newHdr, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := append(append(newHdr, '\n'), data[nl+1:]...)
	if err := os.WriteFile(st.Path(key), rewritten, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(key); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("future-schema file loaded without a schema error: %v", err)
	}
}

func TestStoreRejectsTruncatedAndCorrupt(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	const key = "damage"
	if err := st.Save(key, col); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(st.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated-body", func(b []byte) []byte { return b[:len(b)-len(b)/3] }},
		{"truncated-header", func(b []byte) []byte { return b[:10] }},
		{"flipped-body-byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-2] ^= 0x40 // inside the last record line
			return c
		}},
		{"garbage-header", func(b []byte) []byte {
			return append([]byte("not json at all\n"), b[bytes.IndexByte(b, '\n')+1:]...)
		}},
		{"empty-file", func([]byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(st.Path(key), tc.mangle(pristine), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Load(key); err == nil {
				t.Fatal("damaged store file loaded without error")
			}
		})
	}
}

// storeFileSize returns the on-disk size of one saved entry, for sizing
// eviction budgets.
func storeFileSize(t *testing.T, st *Store, key string) int64 {
	t.Helper()
	info, err := os.Stat(st.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// ageEntry pushes a stored entry's mtime into the past so eviction-order
// tests are deterministic regardless of filesystem timestamp resolution.
func ageEntry(t *testing.T, st *Store, key string, age time.Duration) {
	t.Helper()
	old := time.Now().Add(-age)
	if err := os.Chtimes(st.Path(key), old, old); err != nil {
		t.Fatal(err)
	}
}

// TestStoreEvictionDefaultOff pins the default: without a budget the
// store grows without bound and never deletes anything.
func TestStoreEvictionDefaultOff(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	for _, key := range []string{"a", "b", "c"} {
		if err := st.Save(key, col); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"a", "b", "c"} {
		if got, err := st.Load(key); err != nil || got == nil {
			t.Fatalf("entry %q missing with eviction off: %v", key, err)
		}
	}
}

// TestStoreEvictionRespectsBudget fills the store past its byte cap and
// checks the oldest entries go first while the store shrinks under the
// budget.
func TestStoreEvictionRespectsBudget(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	if err := st.Save("old", col); err != nil {
		t.Fatal(err)
	}
	size := storeFileSize(t, st, "old")
	st.SetMaxBytes(2*size + size/2) // room for two entries, not three
	ageEntry(t, st, "old", 2*time.Hour)
	if err := st.Save("mid", col); err != nil {
		t.Fatal(err)
	}
	ageEntry(t, st, "mid", time.Hour)
	if err := st.Save("new", col); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Load("old"); err != nil || got != nil {
		t.Fatalf("oldest entry survived eviction (col=%v err=%v)", got != nil, err)
	}
	for _, key := range []string{"mid", "new"} {
		if got, err := st.Load(key); err != nil || got == nil {
			t.Fatalf("entry %q evicted although the budget had room: %v", key, err)
		}
	}
}

// TestStoreEvictionSparesEntryBeingRead is the issue's acceptance test:
// a Load refreshes an entry's recency, so the eviction triggered by a
// later Save victimises a colder entry — never the one a sweep is
// actively reading.
func TestStoreEvictionSparesEntryBeingRead(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	if err := st.Save("hot", col); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("cold", col); err != nil {
		t.Fatal(err)
	}
	size := storeFileSize(t, st, "hot")
	st.SetMaxBytes(2*size + size/2)
	// Make "hot" nominally the older file, then read it: the Load must
	// bump its recency above "cold".
	ageEntry(t, st, "hot", 2*time.Hour)
	ageEntry(t, st, "cold", time.Hour)
	if got, err := st.Load("hot"); err != nil || got == nil {
		t.Fatalf("hot entry unreadable before eviction: %v", err)
	}
	if err := st.Save("trigger", col); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Load("hot"); err != nil || got == nil {
		t.Fatalf("eviction removed the entry being read (col=%v err=%v)", got != nil, err)
	}
	if got, err := st.Load("cold"); err != nil || got != nil {
		t.Fatal("eviction spared the cold entry instead of the hot one")
	}
}

// TestStoreEvictionSparesJustSaved: a budget smaller than a single
// stream must still serve the stream just written — eviction never
// removes the entry that triggered it.
func TestStoreEvictionSparesJustSaved(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	if err := st.Save("first", col); err != nil {
		t.Fatal(err)
	}
	st.SetMaxBytes(storeFileSize(t, st, "first") / 2)
	ageEntry(t, st, "first", time.Hour)
	if err := st.Save("second", col); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Load("second"); err != nil || got == nil {
		t.Fatalf("the just-saved entry was evicted by its own save: %v", err)
	}
	if got, err := st.Load("first"); err != nil || got != nil {
		t.Fatal("over-budget older entry survived")
	}
}

func TestStoreSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("k", storeTestStream(t)); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", filepath.Join(dir, e.Name()))
		}
	}
}

// TestStoreSaveRejectsNonFinite: a NaN vehicle sample had no JSONL
// encoding, so Save failed; the binary body refuses it too.
func TestStoreSaveRejectsNonFinite(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	col.Vehicles[len(col.Vehicles)/2].Speed = math.NaN()
	if err := st.Save("nan", col); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Save = %v, want a non-finite error", err)
	}
	if _, err := os.Stat(st.Path("nan")); !os.IsNotExist(err) {
		t.Fatal("a refused stream was published")
	}
}
