package harness

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

// findTemps lists the atomic-write temp files currently in dir.
func findTemps(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var temps []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".unit-") && strings.HasSuffix(e.Name(), ".tmp") {
			temps = append(temps, filepath.Join(dir, e.Name()))
		}
	}
	return temps
}

// TestStoreTornWriteRecovery is the torn-write contract end to end: an
// injected short write fails the Save and leaves only a temp file (the
// published path never holds partial bytes), a later open sweeps the
// stale temp, the key reads as a clean miss, and an unfaulted re-Save
// heals the entry.
func TestStoreTornWriteRecovery(t *testing.T) {
	t.Cleanup(faultpoint.DisarmAll)
	dir := t.TempDir()
	st, err := NewResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "torn-key"
	faultpoint.New("harness.store.save.write").MustArm(faultpoint.Spec{
		Action: faultpoint.ActShortWrite, Bytes: 10, Key: key,
	})
	faultpoint.SetEnabled(true)

	want := storeSample()
	err = st.Save(key, want)
	if err == nil || !strings.Contains(err.Error(), "short write") {
		t.Fatalf("faulted Save = %v, want an injected short write", err)
	}
	if _, serr := os.Stat(st.Path(key)); !os.IsNotExist(serr) {
		t.Fatal("short write published a partial entry")
	}
	temps := findTemps(t, dir)
	if len(temps) != 1 {
		t.Fatalf("found %d temp files after the torn write, want 1", len(temps))
	}
	data, _ := os.ReadFile(temps[0])
	if len(data) != 10 {
		t.Fatalf("torn temp holds %d bytes, want the armed 10", len(data))
	}

	// Reopening the store sweeps temps old enough to be a crashed
	// writer's, and the key is a clean miss.
	old := time.Now().Add(-2 * storeutil.StaleTempAge)
	if err := os.Chtimes(temps[0], old, old); err != nil {
		t.Fatal(err)
	}
	st2, err := NewResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if temps := findTemps(t, dir); len(temps) != 0 {
		t.Fatalf("stale temps survived reopen: %v", temps)
	}
	if res, lerr := st2.Load(key); res != nil || lerr != nil {
		t.Fatalf("Load after torn write = (%v, %v), want a clean miss", res, lerr)
	}

	// Healing: the unfaulted rewrite round-trips.
	faultpoint.DisarmAll()
	if err := st2.Save(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := st2.Load(key)
	if err != nil || got == nil {
		t.Fatalf("Load after heal = (%v, %v)", got, err)
	}
	if !bytes.Equal(got.Meta, want.Meta) {
		t.Fatal("healed entry does not round-trip")
	}
}

// TestStoreQuarantineHeals: a corrupt entry is moved aside on Load — so
// the path is free, the next Save repairs it, and the post-mortem file
// and counters record what happened.
func TestStoreQuarantineHeals(t *testing.T) {
	dir := t.TempDir()
	st, err := NewResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "quarantine-key"
	want := storeSample()
	if err := st.Save(key, want); err != nil {
		t.Fatal(err)
	}
	// Flip a body byte: the CRC must catch it.
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
	pm, err := os.ReadFile(path + storeutil.QuarantineSuffix)
	if err != nil || !bytes.Equal(pm, data) {
		t.Fatalf("post-mortem copy missing or altered: %v", err)
	}
	if got := st.Stats().Corrupt; got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}
	if sum := st.Summary(); sum.Corrupt != 1 || sum.Entries != 0 {
		t.Fatalf("summary = %+v, want 1 corrupt / 0 entries", sum)
	}

	// The second Load is a plain miss — no re-detection loop.
	if res, lerr := st.Load(key); res != nil || lerr != nil {
		t.Fatalf("Load after quarantine = (%v, %v), want a clean miss", res, lerr)
	}
	// And the heal: recompute-and-Save restores the entry.
	if err := st.Save(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(key)
	if err != nil || got == nil || !bytes.Equal(got.Meta, want.Meta) {
		t.Fatalf("healed entry = (%v, %v)", got, err)
	}
	if sum := st.Summary(); sum.Entries != 1 || sum.Corrupt != 1 {
		t.Fatalf("summary after heal = %+v, want 1 entry + 1 post-mortem", sum)
	}
}

// TestStoreLoadFaultInjection: an error armed on the load path surfaces
// to the caller (who treats it as a miss and recomputes) without
// touching the stored bytes.
func TestStoreLoadFaultInjection(t *testing.T) {
	t.Cleanup(faultpoint.DisarmAll)
	st, err := NewResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "load-fault-key"
	if err := st.Save(key, storeSample()); err != nil {
		t.Fatal(err)
	}
	faultpoint.New("harness.store.load").MustArm(faultpoint.Spec{
		Action: faultpoint.ActError, Msg: "injected read failure", Key: key, Count: 1,
	})
	faultpoint.SetEnabled(true)
	if _, lerr := st.Load(key); lerr == nil || !strings.Contains(lerr.Error(), "injected read failure") {
		t.Fatalf("faulted Load = %v", lerr)
	}
	// The fault consumed its budget; the entry itself is intact.
	got, lerr := st.Load(key)
	if lerr != nil || got == nil {
		t.Fatalf("Load after fault = (%v, %v)", got, lerr)
	}
}
