package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// facts are recorded with every result and never compared: the host, the
// code measured, and the seed.
type facts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the VCS revision stamped into the build ("unknown" when
	// built outside a git checkout); SourceSHA256 identifies the measured
	// sources either way: a digest of every .go file and go.mod under the
	// repository root, in path order.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Seed         int64  `json:"seed"`
	// LOC is the non-test Go line count of every package under internal/
	// and cmd/, the repository's "least code" record.
	LOC map[string]int `json:"loc"`
}

// collectFacts reads the facts; root is the repository root.
func collectFacts(root string, seed int64) facts {
	f := facts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		LOC:        map[string]int{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				f.Commit = s.Value
			}
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(filepath.ToSlash(rel) + "\n"))
		h.Write(b)
		top := strings.SplitN(filepath.ToSlash(rel), "/", 2)[0]
		if (top == "internal" || top == "cmd") && strings.HasSuffix(rel, ".go") && !strings.HasSuffix(rel, "_test.go") {
			f.LOC[filepath.ToSlash(filepath.Dir(rel))] += bytes.Count(b, []byte("\n"))
		}
	}
	f.SourceSHA256 = hex.EncodeToString(h.Sum(nil))
	return f
}
