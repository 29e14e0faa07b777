package scenario

import (
	"errors"
	"io/fs"
	"testing"
)

// FuzzParse must never panic on arbitrary input, and every rejection
// must wrap ErrBadSpec so callers can tell a bad spec from a failure of
// their own. The corpus starts from the committed scenario library.
func FuzzParse(f *testing.F) {
	paths, err := fs.Glob(specFS, "specs/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed specs: %v", err)
	}
	for _, p := range paths {
		data, err := fs.ReadFile(specFS, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(validSpecJSON()))
	f.Add([]byte(`{"name": "t"} trailing`))
	f.Add([]byte(`{"name": 7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := Parse(data); err != nil && !errors.Is(err, ErrBadSpec) {
			t.Fatalf("rejection does not wrap ErrBadSpec: %v", err)
		}
	})
}
