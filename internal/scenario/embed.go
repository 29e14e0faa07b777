package scenario

import "embed"

// specFS embeds the seed scenario library so the test binary, the CI
// matrix, and cmd/meccscn all run the exact committed specs without a
// working-directory dependency.
//
//go:embed specs/*.json
var specFS embed.FS

// Builtin returns the embedded seed scenarios, validated as a set and
// sorted by file name.
func Builtin() ([]Spec, error) {
	return loadFS(specFS, "specs")
}
