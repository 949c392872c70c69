package core

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestEngineDoesNotDial: where CollUrls and the Collection live is the
// caller's choice — it injects a ShardSet and a collection pair — so
// no non-test file of the engine may import the cluster client or the
// registry and start dialing again.
func TestEngineDoesNotDial(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		name := f.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "webevolve/internal/cluster" || path == "webevolve/internal/registry" {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}
