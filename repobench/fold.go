package main

import (
	"fmt"
	"math"
	"os/exec"
	"strconv"
	"strings"
)

// pprofTop runs `go tool pprof -top` over a CPU profile, listing every
// function in milliseconds. By default pprof drops every function whose
// cumulative time is at most 0.5% of the total (-nodefraction=0.005); a
// layer of many small functions would lose its share, so nothing is
// dropped here.
func pprofTop(profile string) (string, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000",
		"-unit=ms", profile).Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof %s: %w", profile, err)
	}
	return string(out), nil
}

// foldTop folds `go tool pprof -top` text into CPU shares per layer: each
// function's flat time goes to its package's bucket, named after the
// internal package for repro/internal/<pkg>/..., "runtime" for the
// runtime and its internal packages, "sync" for sync and sync/atomic, and
// "other" for everything else. Shares are of the profile's total from the
// "Showing nodes accounting for ... of N total" header; the rows must
// account for all of it, so that no bucket grows to fill a dropped one.
// The shares sum to 1.
func foldTop(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total, listed float64
	rows := false
	for _, l := range strings.Split(top, "\n") {
		f := strings.Fields(l)
		if !rows {
			if strings.HasPrefix(l, "Showing nodes accounting for ") && len(f) >= 3 && f[len(f)-1] == "total" {
				ms, err := parseMillis(f[len(f)-2])
				if err != nil {
					return nil, fmt.Errorf("pprof header %q: %w", l, err)
				}
				total = ms
			}
			rows = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := parseMillis(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", l, err)
		}
		flat[layerOf(strings.Join(f[5:], " "))] += ms
		listed += ms
	}
	if total <= 0 {
		return nil, fmt.Errorf("pprof -top output has no samples or no total")
	}
	if math.Abs(listed-total) > 0.001*total {
		return nil, fmt.Errorf("pprof -top lists %gms of the profile's %gms: nodes were dropped", listed, total)
	}
	for k := range flat {
		flat[k] /= total
	}
	return flat, nil
}

// parseMillis reads a -unit=ms flat column ("230ms", or "0").
func parseMillis(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// layerOf maps a pprof function name to its bucket.
func layerOf(fn string) string {
	// The package path ends at the first dot after its last slash; type
	// arguments and receivers, which may hold slashes, come later.
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	pkg := head
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		pkg = head[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		return name
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "sync" || strings.HasPrefix(pkg, "sync/"):
		return "sync"
	}
	return "other"
}
