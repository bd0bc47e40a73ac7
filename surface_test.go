package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/benchmark_surface.txt from benchmark/")

const surfaceFile = "testdata/benchmark_surface.txt"

// fixtures are benchmark-facing names no non-test product file uses that
// stay outside a frozen.go: flserver.Server and its constructor, on which
// every single-population flserver test fixture is built.
var fixtures = map[string]bool{
	"repro/internal/flserver.Config":       true,
	"repro/internal/flserver.New":          true,
	"repro/internal/flserver.Server":       true,
	"repro/internal/flserver.Server.Close": true,
	"repro/internal/flserver.Server.Serve": true,
	"repro/internal/flserver.Server.Stats": true,
}

// seam lists the product's references to frozen names, by file: Session.Run
// still routes an ActorEnvelope to the frozen Registry (the benchmark's
// remote.envelope_rt sends one), and SessionOptions.Registry is declared
// beside the session's other options. ROADMAP 14 deletes both.
var seam = map[string][]string{
	"internal/remote/session.go": {"repro/internal/remote.Registry", "repro/internal/remote.Session.deliver"},
}

// TestBenchmarkSurface names benchmark/'s dependence on the product
// (ROADMAP 21). benchmark/ is a module of its own that compiles against
// the product's exported names, so those names cannot change without a
// benchmark change. The test lists every package-level name and method of
// this module that benchmark/*.go (tests included) uses — struct fields are
// not listed — and requires the list to equal testdata/benchmark_surface.txt
// (rewrite it with -update). Then it holds the rule the file records: a
// listed name that no non-test product file uses lives in its package's
// frozen.go or is a fixture (a method counts as used when the product calls
// an interface method of its name, which may dispatch to it), and no
// non-test file outside benchmark/ and the frozen.go files uses a name a
// frozen.go declares, bar the seam. Names resolve through go/types, so a
// method is told apart from another of the same name on another type.
func TestBenchmarkSurface(t *testing.T) {
	frozen := frozenNames(t)
	product, err := loadPackages(".", false, "./...")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, p := range product {
		for _, f := range p.files {
			rel, _ := filepath.Rel(root, p.fset.Position(f.Pos()).Filename)
			if filepath.Base(rel) == "frozen.go" {
				continue
			}
			for _, obj := range p.uses(f) {
				key := objectKey(obj)
				used[key] = true
				if isInterfaceMethod(obj) {
					used["."+obj.Name()] = true // a call that may dispatch to any type's method of that name
				}
				if frozen[key] && !slices.Contains(seam[filepath.ToSlash(rel)], key) {
					t.Errorf("%s uses %s, which a frozen.go declares: only benchmark/ and other frozen code may call it", rel, key)
				}
			}
		}
	}

	bench, err := loadPackages("benchmark", true, ".")
	if err != nil {
		t.Fatal(err)
	}
	surface := map[string]types.Object{}
	for _, p := range bench {
		for _, f := range p.files {
			for _, obj := range p.uses(f) {
				if key := objectKey(obj); strings.HasPrefix(key, "repro/") && !strings.HasPrefix(key, "repro/benchmark") {
					surface[key] = obj
				}
			}
		}
	}
	var lines []string
	for _, key := range slices.Sorted(maps.Keys(surface)) {
		obj := surface[key]
		switch {
		case frozen[key]:
			key += " frozen"
		case fixtures[key]:
			key += " fixture"
		case !used[key] && !(isMethod(obj) && used["."+obj.Name()]):
			t.Errorf("benchmark/ uses %s, which no non-test product file uses: move it to its package's frozen.go", key)
		}
		lines = append(lines, key)
	}
	got := surfaceHeader + strings.Join(lines, "\n") + "\n"
	if *updateSurface {
		if err := os.WriteFile(surfaceFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(surfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got {
		t.Errorf("benchmark/'s surface is not %s (rerun with -update and review the diff):\n%s", surfaceFile, lineDiff(string(want), got))
	}
}

const surfaceHeader = `# benchmark/'s surface: every package-level name and method of the repro
# module that benchmark/*.go (tests included) uses, one a line; struct
# fields are not listed. The second column says why the product keeps a
# name that no non-test product file uses:
#   frozen   declared in its package's frozen.go, kept for benchmark/
#            until ROADMAP 14
#   fixture  every single-population flserver test fixture builds on it
# Checked and rewritten by: go test -run TestBenchmarkSurface [-update] .
`

// frozenNames returns the key of every name the module's frozen.go files
// declare.
func frozenNames(t *testing.T) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob("internal/*/frozen.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, path := range paths {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := "repro/" + filepath.ToSlash(filepath.Dir(path)) + "."
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					name = recv.(*ast.Ident).Name + "." + name
				}
				out[pkg+name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						out[pkg+s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							out[pkg+n.Name] = true
						}
					}
				}
			}
		}
	}
	return out
}

// checked is one package type-checked from source against its imports'
// export data.
type checked struct {
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
}

// uses returns every package-level object and method f uses.
func (p *checked) uses(f *ast.File) []types.Object {
	var out []types.Object
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objectKey(p.info.Uses[id]) != "" {
			out = append(out, p.info.Uses[id])
		}
		return true
	})
	return out
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

func isInterfaceMethod(obj types.Object) bool {
	return isMethod(obj) && types.IsInterface(obj.Type().(*types.Signature).Recv().Type())
}

// objectKey names a package-level object "path.Name" and a method
// "path.Type.Method"; anything else (a field, a local, a package name) is "".
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := types.Unalias(recv.Type())
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = types.Unalias(ptr.Elem())
			}
			named, ok := typ.(*types.Named)
			if !ok {
				return ""
			}
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if _, ok := obj.(*types.PkgName); ok || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// loadPackages type-checks the non-std packages go list names for patterns
// in dir (their test files too when tests is set) from source, their
// imports from the export data go list builds.
func loadPackages(dir string, tests bool, patterns ...string) ([]*checked, error) {
	args := []string{"list", "-e", "-export", "-deps", "-json"}
	if tests {
		args = append(args, "-test")
	}
	cmd := exec.Command("go", append(args, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	type listed struct {
		ImportPath, Dir, Export string
		Standard, DepOnly       bool
		ForTest                 string
		GoFiles, TestGoFiles    []string
		Error                   *struct{ Err string }
	}
	exports := map[string]string{}
	var roots []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.ForTest == "" && !strings.Contains(p.ImportPath, " ") {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && !p.DepOnly && p.ForTest == "" && !strings.HasSuffix(p.ImportPath, ".test") {
			roots = append(roots, p)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	var pkgs []*checked
	for _, p := range roots {
		names := p.GoFiles
		if tests {
			names = append(slices.Clone(names), p.TestGoFiles...)
		}
		c := &checked{fset: fset, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			c.files = append(c.files, f)
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.ImportPath, fset, c.files, c.info); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, c)
	}
	return pkgs, nil
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for _, l := range w {
		if !slices.Contains(g, l) {
			fmt.Fprintf(&b, "-%s\n", l)
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			fmt.Fprintf(&b, "+%s\n", l)
		}
	}
	return b.String()
}
