package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// factsVersion invalidates every cache entry when analyzer semantics
// change. Bump it whenever a rule, message format, or the suppression
// grammar changes in a way that should re-derive stored findings.
const factsVersion = "1"

// localAnalyzers names the analyzers whose findings depend only on the
// analyzed package's own sources plus type information from its
// dependency closure — exactly what the per-package closure key
// covers — so their diagnostics can be replayed for an unchanged
// package even when the rest of the tree changed. Every other analyzer
// reads the whole-program index (call graph, SSA, points-to,
// happens-before) and must re-run whenever any root changes.
var localAnalyzers = map[string]bool{
	"cycleunits":  true,
	"cyclewrap":   true,
	"determinism": true,
	"errwrap":     true,
	"hotpath":     true,
	"nilhook":     true,
	"nopanic":     true,
	"seqlock":     true,
}

// A FactCache is an on-disk store of per-package analysis results,
// keyed so that a warm sweep over an unchanged tree needs only `go
// list` metadata and file hashing — no parsing, no type-checking, no
// analyzer runs.
type FactCache struct {
	dir string
}

// OpenFactCache opens (creating if needed) a cache rooted at dir.
func OpenFactCache(dir string) (*FactCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("analysis: opening fact cache: %w", err)
	}
	return &FactCache{dir: dir}, nil
}

// A cacheEntry holds one root package's serialized findings.
//
// LocalKey hashes the package's own file contents, its transitive
// dependency closure's keys, and factsVersion: when it matches, the
// Local diagnostics (package-local analyzers) are valid verbatim.
// UniverseKey additionally hashes every root's closure key and the
// analyzer selection: when it matches too, nothing in the whole sweep
// changed, so the Global diagnostics (whole-program analyzers,
// attributed to the pass package that produced them) are also valid
// and the entire run can be replayed from the cache.
type cacheEntry struct {
	PkgPath     string
	LocalKey    string
	UniverseKey string
	Local       map[string][]Diagnostic
	Global      map[string][]Diagnostic
}

// path places an entry file under the cache directory; the name hashes
// the import path so nested packages stay one flat directory.
func (c *FactCache) path(pkgPath string) string {
	sum := sha256.Sum256([]byte(pkgPath))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:12])+".json")
}

// load returns the stored entry for a package, or nil when it is
// missing or unreadable (a corrupt entry is just a cache miss).
func (c *FactCache) load(pkgPath string) *cacheEntry {
	data, err := os.ReadFile(c.path(pkgPath))
	if err != nil {
		return nil
	}
	e := new(cacheEntry)
	if json.Unmarshal(data, e) != nil || e.PkgPath != pkgPath {
		return nil
	}
	return e
}

// store writes one entry; failures surface, because a silently stale
// cache would be worse than none.
func (c *FactCache) store(e *cacheEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("analysis: encoding fact cache entry %s: %w", e.PkgPath, err)
	}
	if err := os.WriteFile(c.path(e.PkgPath), data, 0o644); err != nil {
		return fmt.Errorf("analysis: writing fact cache entry %s: %w", e.PkgPath, err)
	}
	return nil
}

// closureKeys computes each package's content key in dependency order:
// a hash over factsVersion, the package's own file contents (standard
// library packages are keyed by toolchain version instead of file
// reads), and the keys of everything it imports — so a change anywhere
// below a package changes the package's key.
func closureKeys(order []*listPkg) (map[string]string, error) {
	keys := make(map[string]string, len(order))
	for _, m := range order {
		h := sha256.New()
		fmt.Fprintf(h, "facts %s\npkg %s\n", factsVersion, m.ImportPath)
		if m.Standard {
			fmt.Fprintf(h, "stdlib %s\n", runtime.Version())
		} else {
			files := append([]string(nil), m.GoFiles...)
			sort.Strings(files)
			for _, name := range files {
				data, err := os.ReadFile(filepath.Join(m.Dir, name))
				if err != nil {
					return nil, fmt.Errorf("%w: hashing %s: %w", ErrLoad, name, err)
				}
				sum := sha256.Sum256(data)
				fmt.Fprintf(h, "file %s %x\n", name, sum)
			}
		}
		for _, imp := range sortedImports(m) {
			fmt.Fprintf(h, "import %s %s\n", imp, keys[imp])
		}
		keys[m.ImportPath] = hex.EncodeToString(h.Sum(nil))
	}
	return keys, nil
}

// sortedImports resolves a package's imports through its vendor map
// and returns them sorted, minus the pseudo-packages.
func sortedImports(m *listPkg) []string {
	out := make([]string, 0, len(m.Imports))
	for _, imp := range m.Imports {
		if mapped, ok := m.ImportMap[imp]; ok {
			imp = mapped
		}
		if imp == "unsafe" || imp == "C" {
			continue
		}
		out = append(out, imp)
	}
	sort.Strings(out)
	return out
}

// universeKeyFor hashes everything a whole-program analyzer can see:
// the analyzer selection, the toolchain, and every root package's
// closure key. Matching universe keys mean the sweep's entire input is
// unchanged.
func universeKeyFor(order []*listPkg, keys map[string]string, analyzers []*Analyzer) string {
	h := sha256.New()
	fmt.Fprintf(h, "facts %s\ngo %s\n", factsVersion, runtime.Version())
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "analyzer %s\n", n)
	}
	for _, m := range order {
		if !m.DepOnly {
			fmt.Fprintf(h, "root %s %s\n", m.ImportPath, keys[m.ImportPath])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats summarizes one cached sweep.
type CacheStats struct {
	// Roots counts the root packages in the sweep.
	Roots int
	// Warm counts roots whose cached facts were reused (fully on the
	// fast path, at least the package-local analyzers otherwise).
	Warm int
	// FastPath is true when every root was warm under the current
	// universe key, so the whole run was replayed from metadata alone.
	FastPath bool
}

// RunCached is Load+RunTimed with the fact cache in front. When nothing
// reachable from the patterns changed, it replays every diagnostic
// from the cache without parsing or type-checking a single file; when
// some packages changed, it type-checks the tree, re-runs the
// whole-program analyzers everywhere, but replays the package-local
// analyzers on every unchanged package. Both paths return exactly the
// diagnostics an uncached RunTimed would.
func RunCached(cache *FactCache, dir string, patterns []string, analyzers []*Analyzer, timings map[string]time.Duration) ([]Diagnostic, CacheStats, error) {
	metaStart := time.Now()
	order, _, err := loadMetas(dir, patterns)
	if err != nil {
		return nil, CacheStats{}, err
	}
	keys, err := closureKeys(order)
	if err != nil {
		return nil, CacheStats{}, err
	}
	universe := universeKeyFor(order, keys, analyzers)

	var roots []*listPkg
	for _, m := range order {
		if !m.DepOnly {
			roots = append(roots, m)
		}
	}
	stats := CacheStats{Roots: len(roots)}

	// An entry whose LocalKey matches can replay its package-local
	// findings; the fast path additionally needs every root's
	// UniverseKey to match.
	entries := make(map[string]*cacheEntry, len(roots))
	fastPath := len(roots) > 0
	for _, m := range roots {
		e := cache.load(m.ImportPath)
		if e == nil || e.LocalKey != keys[m.ImportPath] {
			fastPath = false
			continue
		}
		entries[m.ImportPath] = e
		if e.UniverseKey != universe {
			fastPath = false
		}
	}
	if timings != nil {
		timings["metadata"] += time.Since(metaStart)
	}

	if fastPath {
		var out []Diagnostic
		for _, m := range roots {
			e := entries[m.ImportPath]
			for _, ds := range e.Local {
				out = append(out, ds...)
			}
			for _, ds := range e.Global {
				out = append(out, ds...)
			}
		}
		sortDiags(out)
		stats.Warm = len(roots)
		stats.FastPath = true
		return out, stats, nil
	}

	loadStart := time.Now()
	pkgs := checkAll(order)
	if timings != nil {
		timings["load"] += time.Since(loadStart)
	}
	rootPkgs := Roots(pkgs)

	// Fresh entries for every cleanly checked root; packages with load
	// errors are never cached, so they can never satisfy the fast path.
	fresh := make(map[string]*cacheEntry, len(rootPkgs))
	for _, p := range rootPkgs {
		if len(p.Errors) > 0 {
			continue
		}
		fresh[p.PkgPath] = &cacheEntry{
			PkgPath:     p.PkgPath,
			LocalKey:    keys[p.PkgPath],
			UniverseKey: universe,
			Local:       map[string][]Diagnostic{},
			Global:      map[string][]Diagnostic{},
		}
	}

	warm := make(map[string]bool)
	skip := func(pkg *Package, a *Analyzer) ([]Diagnostic, bool) {
		if !localAnalyzers[a.Name] {
			return nil, false
		}
		e := entries[pkg.PkgPath]
		if e == nil {
			return nil, false
		}
		ds, ok := e.Local[a.Name]
		if !ok {
			return nil, false
		}
		warm[pkg.PkgPath] = true
		if f := fresh[pkg.PkgPath]; f != nil {
			f.Local[a.Name] = ds
		}
		return ds, true
	}
	record := func(pkg *Package, a *Analyzer, ds []Diagnostic, internalErr bool) {
		f := fresh[pkg.PkgPath]
		if f == nil {
			return
		}
		if internalErr {
			delete(fresh, pkg.PkgPath)
			return
		}
		if ds == nil {
			ds = []Diagnostic{}
		}
		if localAnalyzers[a.Name] {
			f.Local[a.Name] = ds
		} else {
			f.Global[a.Name] = ds
		}
	}

	out := runPasses(rootPkgs, analyzers, skip, record, timings)
	for _, p := range rootPkgs {
		if e := fresh[p.PkgPath]; e != nil {
			if err := cache.store(e); err != nil {
				return nil, stats, err
			}
		}
	}
	stats.Warm = len(warm)
	return out, stats, nil
}
