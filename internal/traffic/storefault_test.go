package traffic

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/storeutil"
)

// TestStoreTornWriteRecovery: an injected short write on the trace
// store's atomic Save leaves only a temp file, a reopen sweeps it, the
// key misses cleanly, and the unfaulted rewrite heals the entry.
func TestStoreTornWriteRecovery(t *testing.T) {
	t.Cleanup(faultpoint.DisarmAll)
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	const key = "torn-trace-key"
	faultpoint.New("traffic.store.save.write").MustArm(faultpoint.Spec{
		Action: faultpoint.ActShortWrite, Bytes: 25, Key: key,
	})
	faultpoint.SetEnabled(true)

	err = st.Save(key, col)
	if err == nil || !strings.Contains(err.Error(), "short write") {
		t.Fatalf("faulted Save = %v, want an injected short write", err)
	}
	if _, serr := os.Stat(st.Path(key)); !os.IsNotExist(serr) {
		t.Fatal("short write published a partial entry")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var temp string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".trace-") && strings.HasSuffix(e.Name(), ".tmp") {
			temp = filepath.Join(dir, e.Name())
		}
	}
	if temp == "" {
		t.Fatal("torn write left no temp file")
	}

	old := time.Now().Add(-2 * storeutil.StaleTempAge)
	if err := os.Chtimes(temp, old, old); err != nil {
		t.Fatal(err)
	}
	st2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := os.Stat(temp); !os.IsNotExist(serr) {
		t.Fatal("stale temp survived reopen")
	}
	if got, lerr := st2.Load(key); got != nil || lerr != nil {
		t.Fatalf("Load after torn write = (%v, %v), want a clean miss", got, lerr)
	}

	faultpoint.DisarmAll()
	if err := st2.Save(key, col); err != nil {
		t.Fatal(err)
	}
	got, err := st2.Load(key)
	if err != nil || got == nil {
		t.Fatalf("Load after heal = (%v, %v)", got, err)
	}
	if !bytes.Equal(jsonlBytes(t, got), jsonlBytes(t, col)) {
		t.Fatal("healed entry does not round-trip byte-identically")
	}
}

// TestStoreQuarantineHeals: a corrupt trace entry is moved aside to
// <name>.corrupt on Load, reads as a clean miss afterwards, and the
// next Save repairs it.
func TestStoreQuarantineHeals(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	const key = "quarantine-trace-key"
	if err := st.Save(key, col); err != nil {
		t.Fatal(err)
	}
	path := st.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, lerr := st.Load(key)
	if lerr == nil || !strings.Contains(lerr.Error(), "CRC") || !strings.Contains(lerr.Error(), "quarantined") {
		t.Fatalf("Load of corrupt entry = %v, want a quarantining CRC error", lerr)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatal("corrupt file still occupies the entry's path")
	}
	if _, serr := os.Stat(path + storeutil.QuarantineSuffix); serr != nil {
		t.Fatalf("post-mortem copy missing: %v", serr)
	}
	if got, lerr := st.Load(key); got != nil || lerr != nil {
		t.Fatalf("Load after quarantine = (%v, %v), want a clean miss", got, lerr)
	}
	if err := st.Save(key, col); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(key)
	if err != nil || got == nil || !bytes.Equal(jsonlBytes(t, got), jsonlBytes(t, col)) {
		t.Fatalf("healed entry = (%v, %v)", got, err)
	}
}

// TestStoreEvictionCountsCorrupt: quarantined post-mortem files count
// toward the byte budget and are themselves evictable, so corruption
// can never push the store past its cap.
func TestStoreEvictionCountsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	if err := st.Save("victim", col); err != nil {
		t.Fatal(err)
	}
	// Corrupt and quarantine the entry; the .corrupt file stays on disk.
	path := st.Path("victim")
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, lerr := st.Load("victim"); lerr == nil {
		t.Fatal("corrupt entry loaded")
	}
	corrupt := path + storeutil.QuarantineSuffix
	info, err := os.Stat(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	// Age the post-mortem file so it is the LRU victim, then budget the
	// store to a single entry and save another: the .corrupt bytes must
	// be evicted to make room.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(corrupt, old, old); err != nil {
		t.Fatal(err)
	}
	st.SetMaxBytes(info.Size() + 16)
	if err := st.Save("fresh", col); err != nil {
		t.Fatal(err)
	}
	if _, serr := os.Stat(corrupt); !os.IsNotExist(serr) {
		t.Fatal("quarantined bytes were not counted by the budget")
	}
	if got, lerr := st.Load("fresh"); got == nil || lerr != nil {
		t.Fatalf("freshly saved entry evicted instead: (%v, %v)", got, lerr)
	}
}
