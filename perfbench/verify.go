package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/harness"
)

// refDigestLen is how many hex digits of each output's SHA-256 the
// references keep: 64 bits, ample to catch any changed byte.
const refDigestLen = 16

// Refs are the reference output digests recorded at the commit that
// defined the benchmark: workload → seed → output file → digest prefix.
// They cover full-size sweeps only.
type Refs map[string]map[string]map[string]string

//go:embed refs.json
var refsJSON []byte

// LoadRefs parses the embedded references.
func LoadRefs() (Refs, error) {
	var r Refs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return r, nil
}

// Lookup returns the reference digests of a full-size sweep of workload
// at seed, or nil when none were recorded.
func (r Refs) Lookup(workload string, seed int64, rounds int) map[string]string {
	if rounds != sweepRounds {
		return nil
	}
	return r[workload][strconv.FormatInt(seed, 10)]
}

// Record stores a sweep's output digests as the reference for workload
// at seed, unless one is already recorded.
func (r Refs) Record(workload string, seed int64, outputs map[string]string) {
	if r[workload] == nil {
		r[workload] = make(map[string]map[string]string)
	}
	key := strconv.FormatInt(seed, 10)
	if r[workload][key] == nil {
		r[workload][key] = outputs
	}
}

// WriteRefs writes the references as indented JSON with sorted keys.
func WriteRefs(path string, r Refs) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// CheckOutputs re-hashes every output the manifest lists and compares
// it with the manifest's digest and, when ref is non-nil, with the
// reference. It returns how many files fail (a file counts once, and a
// reference file the sweep did not write counts too) and the digest
// prefix of every output.
func CheckOutputs(outDir string, m *harness.Manifest, ref map[string]string) (int, map[string]string) {
	mismatched := 0
	outputs := make(map[string]string)
	for _, e := range m.Experiments {
		for _, o := range e.Outputs {
			outputs[o.File] = prefix(o.SHA256)
			data, err := os.ReadFile(filepath.Join(outDir, o.File))
			switch {
			case err != nil || sha256Hex(data) != o.SHA256:
				mismatched++
			case ref != nil && ref[o.File] != prefix(o.SHA256):
				mismatched++
			}
		}
	}
	for file := range ref {
		if _, ok := outputs[file]; !ok {
			mismatched++
		}
	}
	return mismatched, outputs
}

func prefix(digest string) string {
	if len(digest) > refDigestLen {
		return digest[:refDigestLen]
	}
	return digest
}

// parenthetical matches the "(24.7%)" shares after Table 1's counts.
var parenthetical = regexp.MustCompile(`\([^)]*\)`)

// CheckTable1 checks the paper's central claim on a rendered Table 1:
// for every car that lost packets before cooperation, the mean loss
// after the cooperative phase is below it, and no car loses more after
// than before.
func CheckTable1(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("table 1: %w", err)
	}
	defer f.Close()
	cars := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// "1      Mean   170.8   42.1 (24.7%)   19.8 (11.6%)"
		fields := strings.Fields(parenthetical.ReplaceAllString(sc.Text(), ""))
		if len(fields) != 5 || fields[1] != "Mean" {
			continue
		}
		before, err1 := strconv.ParseFloat(fields[3], 64)
		after, err2 := strconv.ParseFloat(fields[4], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("table 1: unreadable row %q", sc.Text())
		}
		if after > before || (before > 0 && after == before) {
			return fmt.Errorf("table 1: car %s loses %.1f packets after cooperation, %.1f before", fields[0], after, before)
		}
		cars++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("table 1: %w", err)
	}
	if cars == 0 {
		return fmt.Errorf("table 1: no car rows in %s", path)
	}
	return nil
}
