package storeutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"repro/internal/faultpoint"
)

// StaleTempAge is how old an abandoned atomic-write temp file must be
// before opening a store sweeps it: old enough that no live writer's
// temp is ever touched, young enough that a crashed sweep's litter is
// gone by the resume.
const StaleTempAge = time.Hour

// Header is the JSON first line of every store file. The full key is
// embedded so file-name hash collisions can never alias two entries,
// and the section lengths + CRC make truncation and corruption
// detectable without trusting any body parser to notice.
type Header struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	// Sections are the byte lengths of the body sections, concatenated
	// in order after the header line. -1 marks an absent section (a nil
	// one), distinct from an empty one.
	Sections []int64 `json:"sections"`
	// BodyCRC is the CRC-32 (IEEE) of the whole concatenated body.
	BodyCRC uint32 `json:"body_crc"`
}

// Envelope is the file discipline both on-disk stores share: a JSON
// header line, a body of length-delimited sections under one CRC,
// atomic temp-file-plus-rename writes with a torn-write fault point,
// and quarantine of every file that fails validation. A store supplies
// only its section encoding and its counters.
type Envelope struct {
	Dir    string
	Schema string
	// Name prefixes every error, e.g. "harness: result store".
	Name string
	// Sections is the number of body sections every entry carries.
	Sections int
	// Suffix ends every entry's file name. Entry files end in ".jsonl"
	// because their first line, the header, is JSON.
	Suffix string
	// TempPrefix starts every atomic-write temp file's name; temps end
	// in ".tmp".
	TempPrefix string
	// LoadFault fires with the key before every read; SaveFault can
	// tear every write (see faultpoint.Point.ShortWrite).
	LoadFault, SaveFault *faultpoint.Point
}

// Open creates the store directory if needed and sweeps atomic-write
// temps abandoned by crashed writers.
func (e *Envelope) Open() error {
	if e.Dir == "" {
		return fmt.Errorf("%s: empty directory", e.Name)
	}
	if err := os.MkdirAll(e.Dir, 0o755); err != nil {
		return fmt.Errorf("%s: %w", e.Name, err)
	}
	CleanStaleTemps(e.Dir, e.TempPrefix, ".tmp", StaleTempAge)
	return nil
}

// Path returns the file a key stores under. The name is a 64-bit FNV-1a
// hash of the key; collisions are harmless because Read verifies the
// embedded key.
func (e *Envelope) Path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(e.Dir, fmt.Sprintf("%016x%s", h.Sum64(), e.Suffix))
}

// ReadStats is what one Read did, for the stores' counters.
type ReadStats struct {
	Bytes       int  // bytes read from disk
	Quarantined bool // the file failed validation and was moved aside
}

// Read loads key's file and hands its body sections (nil for an absent
// one) to decode. An absent file is a clean miss: decode is not called
// and the error is nil. A file that fails validation — foreign schema,
// key mismatch, section count, truncation, CRC, or a decode error
// — is quarantined and reported as an error; callers treat that as a
// miss and recompute, and their next Write heals the entry. The
// sections alias one buffer owned by the caller once Read returns.
func (e *Envelope) Read(key string, decode func(sections [][]byte) error) (ReadStats, error) {
	var st ReadStats
	if err := e.LoadFault.FireKey(key); err != nil {
		return st, fmt.Errorf("%s: %w", e.Name, err)
	}
	path := e.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, fmt.Errorf("%s: %w", e.Name, err)
	}
	st.Bytes = len(data)
	if err := e.validate(path, key, data, decode); err != nil {
		st.Quarantined = true
		if qerr := Quarantine(path); qerr != nil {
			return st, err
		}
		return st, fmt.Errorf("%w (quarantined to %s)", err, filepath.Base(path)+QuarantineSuffix)
	}
	return st, nil
}

func (e *Envelope) validate(path, key string, data []byte, decode func([][]byte) error) error {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return fmt.Errorf("%s %s: truncated header", e.Name, path)
	}
	var hdr Header
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return fmt.Errorf("%s %s: header: %w", e.Name, path, err)
	}
	if hdr.Schema != e.Schema {
		return fmt.Errorf("%s %s: schema %q, want %q", e.Name, path, hdr.Schema, e.Schema)
	}
	if hdr.Key != key {
		return fmt.Errorf("%s %s: key mismatch (stored %q)", e.Name, path, hdr.Key)
	}
	if len(hdr.Sections) != e.Sections {
		return fmt.Errorf("%s %s: %d sections, want %d", e.Name, path, len(hdr.Sections), e.Sections)
	}
	body := data[nl+1:]
	var want int64
	for _, n := range hdr.Sections {
		if n < -1 {
			return fmt.Errorf("%s %s: section length %d out of range", e.Name, path, n)
		}
		if n > int64(len(body)) {
			return fmt.Errorf("%s %s: section of %d bytes in a %d-byte body (truncated?)", e.Name, path, n, len(body))
		}
		want += max(n, 0)
	}
	if int64(len(body)) != want {
		return fmt.Errorf("%s %s: body %d bytes, header says %d (truncated?)", e.Name, path, len(body), want)
	}
	if crc := crc32.ChecksumIEEE(body); crc != hdr.BodyCRC {
		return fmt.Errorf("%s %s: body CRC %08x, header says %08x (corrupt)", e.Name, path, crc, hdr.BodyCRC)
	}
	sections := make([][]byte, len(hdr.Sections))
	for i, n := range hdr.Sections {
		if n >= 0 {
			sections[i], body = body[:n:n], body[n:]
		}
	}
	if err := decode(sections); err != nil {
		return fmt.Errorf("%s %s: %w", e.Name, path, err)
	}
	return nil
}

// Write stores the sections under key atomically and returns the bytes
// written, header line included. A nil section is stored as absent.
// Concurrent writers of one key race benignly: each renames a complete
// file into place, and the entries are pure functions of their keys.
func (e *Envelope) Write(key string, sections [][]byte) (int, error) {
	hdr := Header{Schema: e.Schema, Key: key, Sections: make([]int64, len(sections))}
	bodyLen := 0
	for i, s := range sections {
		if s == nil {
			hdr.Sections[i] = -1
			continue
		}
		hdr.Sections[i] = int64(len(s))
		hdr.BodyCRC = crc32.Update(hdr.BodyCRC, crc32.IEEETable, s)
		bodyLen += len(s)
	}
	hdrLine, err := json.Marshal(hdr)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", e.Name, err)
	}
	hdrLine = append(hdrLine, '\n')
	total := len(hdrLine) + bodyLen
	tmp, err := os.CreateTemp(e.Dir, e.TempPrefix+"*.tmp")
	if err != nil {
		return 0, fmt.Errorf("%s: %w", e.Name, err)
	}
	keepTmp := false
	defer func() {
		if !keepTmp {
			os.Remove(tmp.Name()) // no-op after a successful rename
		}
	}()
	// Torn-write injection: write only the armed byte prefix and abort
	// the way a crashed process would — temp left behind, no rename, so
	// the store's published entry is never a partial file.
	if n, ok := e.SaveFault.ShortWrite(key); ok {
		payload := bytes.Join(append([][]byte{hdrLine}, sections...), nil)
		n = min(n, len(payload))
		_, werr := tmp.Write(payload[:n])
		if cerr := tmp.Close(); werr == nil {
			werr = cerr
		}
		keepTmp = true
		return 0, fmt.Errorf("%s: faultpoint short write (%d of %d bytes) on %s: %v",
			e.Name, n, total, tmp.Name(), werr)
	}
	_, err = tmp.Write(hdrLine)
	for _, s := range sections {
		if err == nil {
			_, err = tmp.Write(s)
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("%s: writing %s: %w", e.Name, tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), e.Path(key)); err != nil {
		return 0, fmt.Errorf("%s: %w", e.Name, err)
	}
	return total, nil
}
