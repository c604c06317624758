// Package storeutil holds what the on-disk stores (internal/harness's
// result store and internal/traffic's trace store) share: the file
// Envelope — header line, length-delimited sections under one CRC,
// atomic temp-file-plus-rename writes — and the self-healing primitives
// behind it: quarantining files that fail validation so the next atomic
// rename repairs the entry, and sweeping up temp files abandoned by
// crashed writers.
package storeutil

import (
	"os"
	"path/filepath"
	"strings"
	"time"
)

// QuarantineSuffix is appended to a store file's name when validation
// rejects it. The original path is freed, so the entry's next Save
// renames clean bytes into place instead of the store re-detecting the
// same corruption forever; the moved file survives for post-mortems and
// is counted by the stores' corruption counters.
const QuarantineSuffix = ".corrupt"

// Quarantine moves path aside to path+QuarantineSuffix, replacing any
// earlier quarantined copy (at most one post-mortem file per entry).
func Quarantine(path string) error {
	return os.Rename(path, path+QuarantineSuffix)
}

// CleanStaleTemps removes abandoned atomic-write temp files — names
// matching prefix*suffix in dir — older than olderThan, returning how
// many it removed. The age gate keeps it safe against live writers: a
// crashed process's temps are hours old by the next open, while a
// concurrent writer's temp is milliseconds old. Best effort throughout;
// it never fails the caller.
func CleanStaleTemps(dir, prefix, suffix string, olderThan time.Duration) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-olderThan)
	removed := 0
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			removed++
		}
	}
	return removed
}
