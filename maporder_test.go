package bulletprime

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// mapOrderPackages are the packages a run's event order passes through: a
// range over a map there visits keys in an order Go randomizes per run, so
// anything it sends, schedules, draws or appends in that order breaks
// determinism per seed.
var mapOrderPackages = []string{
	"core", "bullet", "bittorrent", "splitstream", "ransub",
	"proto", "netem", "sim", "harness", "scenario",
}

// mapRangeAllowlist names every range over a map in the non-test code of
// mapOrderPackages, keyed "file func(ranged expression)", with the reason
// its order cannot reach a run. A new map range fails
// TestMapRangesAreAllowlisted until it is listed here with its reason, or
// walks an id-ordered list (proto.IDList) instead.
var mapRangeAllowlist = map[string]string{
	"internal/core/session.go senderBytes(s.peers)":         "sums byte counts, and integer sums are order-free",
	"internal/harness/harness.go CDF(r.Done)":               "adds completion times to a trace.CDF, which sorts its samples",
	"internal/harness/shard.go collect(slot.Done)":          "collects the ids and sorts them before reading the times",
	"internal/harness/systems.go SystemNames(systems)":      "collects the names and sorts them",
	"internal/proto/runtime.go Fail(n.conns)":               "collects the connections and sorts them into dial order before closing any",
	"internal/splitstream/splitstream.go moreToSend(p.out)": "an any-of test: the answer does not depend on which stripe is seen first",
}

// TestMapRangesAreAllowlisted type-checks the packages in mapOrderPackages
// from source and fails on any range over a map that mapRangeAllowlist does
// not name, and on any entry that names no range. Their imports are read
// from the export data the go command keeps for the build (one `go list
// -export` call), so no dependency is type-checked from source.
func TestMapRangesAreAllowlisted(t *testing.T) {
	fset := token.NewFileSet()
	imp := exportImporter(t, fset)
	found := map[string]token.Position{}
	for _, pkg := range mapOrderPackages {
		dir := filepath.Join("internal", pkg)
		files := parseNonTest(t, fset, dir)
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check("bulletprime/"+filepath.ToSlash(dir), fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
						pos := fset.Position(rs.Pos())
						key := fmt.Sprintf("%s %s(%s)", filepath.ToSlash(pos.Filename), fn.Name.Name, types.ExprString(rs.X))
						found[key] = pos
					}
					return true
				})
			}
		}
	}
	var keys []string
	for key := range found {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		if reason, ok := mapRangeAllowlist[key]; !ok || reason == "" {
			t.Errorf("%s: range over a map (%q) is not in mapRangeAllowlist: walk an id-ordered list, or list it with the reason its order cannot reach a run", found[key], key)
		}
	}
	for key := range mapRangeAllowlist {
		if _, ok := found[key]; !ok {
			t.Errorf("mapRangeAllowlist entry %q names no range over a map", key)
		}
	}
	t.Logf("%d ranges over a map in %d packages: %q", len(found), len(mapOrderPackages), keys)
}

// exportImporter imports packages from the export data `go list -export`
// names for mapOrderPackages and everything they depend on.
func exportImporter(t *testing.T, fset *token.FileSet) types.Importer {
	t.Helper()
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for _, pkg := range mapOrderPackages {
		args = append(args, "./internal/"+pkg)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		exports[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
}

// parseNonTest parses the non-test Go files of one package directory.
func parseNonTest(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}
