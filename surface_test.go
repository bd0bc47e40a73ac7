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
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
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
	product, err := productLoad()
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

	bench, err := benchLoad()
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
	path    string // import path
	fset    *token.FileSet
	files   []*ast.File // type-checked
	tests   []*ast.File // parsed only: test files not type-checked
	ignored []*ast.File // parsed only: files this platform does not build
	deps    []string    // every package it links, from go list -deps
	info    *types.Info
	imp     types.Importer
}

// productLoad and benchLoad are the loads TestBenchmarkSurface and
// TestGuards share: the module's packages, and benchmark/'s with its tests.
var (
	productLoad = sync.OnceValues(func() ([]*checked, error) { return loadPackages(".", false, "./...") })
	benchLoad   = sync.OnceValues(func() ([]*checked, error) { return loadPackages("benchmark", true, ".") })
)

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
		ImportPath, Dir, Export                                  string
		Standard, DepOnly                                        bool
		ForTest                                                  string
		GoFiles, TestGoFiles, XTestGoFiles, IgnoredGoFiles, Deps []string
		Error                                                    *struct{ Err string }
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
	parse := func(dir string, names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	var pkgs []*checked
	for _, p := range roots {
		names, other := p.GoFiles, slices.Concat(p.TestGoFiles, p.XTestGoFiles)
		if tests {
			names, other = slices.Concat(names, p.TestGoFiles), p.XTestGoFiles
		}
		c := &checked{path: p.ImportPath, fset: fset, imp: imp, deps: p.Deps, info: &types.Info{
			Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}}
		var err error
		if c.files, err = parse(p.Dir, names); err != nil {
			return nil, err
		}
		if c.tests, err = parse(p.Dir, other); err != nil {
			return nil, err
		}
		if c.ignored, err = parse(p.Dir, p.IgnoredGoFiles); err != nil {
			return nil, err
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

const guardsFile = "testdata/guards.txt"

// TestGuards holds the source rules of testdata/guards.txt (ROADMAP 30):
// each row names a kind, a scope, the names it rules on and the item or
// lever it enforces, and every file of the module and of benchmark/ is
// checked against it. Names resolve through go/types in the files this
// platform builds; test files and files built elsewhere are parsed only,
// their selectors resolved through their imports.
func TestGuards(t *testing.T) {
	guards, tr := loadGuards(t)
	for _, g := range guards {
		for _, v := range tr.check(g) {
			t.Error(v)
		}
	}
}

// TestGuardFixtures plants each file of testdata/guards where its first
// line says, "// plant PATH: KIND NAME", and requires TestGuards' evaluator
// to report the row of that kind whose names hold NAME, with its item and
// reason. The fixtures end in .txt, so no tool builds, formats or counts
// them.
func TestGuardFixtures(t *testing.T) {
	guards, tr := loadGuards(t)
	paths, err := filepath.Glob("testdata/guards/*.txt")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures in testdata/guards: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		head, _, _ := strings.Cut(string(b), "\n")
		plant, want, ok := strings.Cut(strings.TrimPrefix(head, "// plant "), ": ")
		kind, name, _ := strings.Cut(want, " ")
		if !ok {
			t.Fatalf("%s: first line %q is not \"// plant PATH: KIND NAME\"", p, head)
		}
		var row *guard
		for i, g := range guards {
			if g.kind == kind && (name == "" || slices.Contains(g.names, name)) {
				if row != nil {
					t.Fatalf("%s: %q names more than one row", p, want)
				}
				row = &guards[i]
			}
		}
		if row == nil {
			t.Fatalf("%s: no row %q", p, want)
		}
		planted, err := tr.plant(plant, b)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		got := planted.check(*row)
		if len(got) == 0 {
			t.Errorf("%s planted as %s: the %s row of %s:%d reports nothing", p, plant, kind, guardsFile, row.line)
		}
		for _, v := range got {
			t.Log(v)
			if !strings.HasSuffix(v, fmt.Sprintf("(%s: %s)", row.item, row.reason)) {
				t.Errorf("%s: %q does not give the row's item and reason", p, v)
			}
		}
	}
}

// A guard is one row of testdata/guards.txt.
type guard struct {
	line                  int
	kind, item, reason    string
	scope, names, allowed []string
}

func loadGuards(t *testing.T) ([]guard, *tree) {
	t.Helper()
	b, err := os.ReadFile(guardsFile)
	if err != nil {
		t.Fatal(err)
	}
	var guards []guard
	for i, l := range strings.Split(string(b), "\n") {
		if l = strings.TrimSpace(l); l == "" || l[0] == '#' {
			continue
		}
		f := strings.Split(l, "|")
		if len(f) != 5 {
			t.Fatalf("%s:%d: %d fields, want kind | scope | names [= allowed] | item | reason", guardsFile, i+1, len(f))
		}
		names, allowed, _ := strings.Cut(f[2], " = ")
		g := guard{line: i + 1, kind: strings.TrimSpace(f[0]), scope: expand(f[1]), names: expand(names),
			allowed: expand(allowed), item: strings.TrimSpace(f[3]), reason: strings.TrimSpace(f[4])}
		if !slices.Contains([]string{"retired", "importers", "callers", "reachable", "files", "house"}, g.kind) {
			t.Fatalf("%s:%d: unknown kind %q", guardsFile, g.line, g.kind)
		}
		guards = append(guards, g)
	}
	tr, err := treeLoad()
	if err != nil {
		t.Fatal(err)
	}
	return guards, tr
}

// expand splits a field into its words and expands each {a,b,...}.
func expand(field string) []string {
	var out []string
	for _, w := range strings.Fields(field) {
		i := strings.Index(w, "{")
		j := strings.Index(w, "}")
		if i < 0 || j < i {
			out = append(out, w)
			continue
		}
		for _, alt := range strings.Split(w[i+1:j], ",") {
			out = append(out, expand(w[:i]+alt+w[j+1:])...)
		}
	}
	return out
}

// A source is one Go file as the guards see it.
type source struct {
	path    string // slash-separated, from the repository's root
	pkg     string // import path
	test    bool
	ignored bool // this platform does not build it
	imports []string
	refs    []ref
}

// A ref is an identifier, or a go statement, in a source.
type ref struct {
	name string // "go" for a go statement
	key  string // objectKey, a builtin's name, or pkgpath.Name for a selector of an import or a declaration in a parsed-only file
	typ  string // a variable's type, its packages by name
	encl string // the top-level declaration it sits in: F, T.M or a type's or value's name
	def  bool
	line int
}

// tree is the module and benchmark/ as the guards see them.
type tree struct {
	sources []source
	paths   []string // every file under the root, bar .git and .bench_build
	lines   int      // non-test .go lines outside benchmark/ and .bench_build/
	fset    *token.FileSet
	imp     types.Importer
	deps    map[string][]string // the packages each package links, from go list
}

var treeLoad = sync.OnceValues(func() (*tree, error) {
	product, err := productLoad()
	if err != nil {
		return nil, err
	}
	bench, err := benchLoad()
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(".")
	if err != nil {
		return nil, err
	}
	tr := &tree{fset: product[0].fset, imp: product[0].imp, deps: map[string][]string{}}
	for _, p := range slices.Concat(product, bench) {
		tr.deps[p.path] = append(slices.Clone(p.deps), p.path)
		for _, f := range p.files {
			tr.sources = append(tr.sources, newSource(p.fset, f, root, p.path, p.info))
		}
		for _, f := range slices.Concat(p.tests, p.ignored) {
			s := newSource(p.fset, f, root, p.path, nil)
			s.ignored = slices.Contains(p.ignored, f)
			tr.sources = append(tr.sources, s)
		}
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == ".git" || path == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		tr.paths = append(tr.paths, path)
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") && !strings.HasPrefix(path, "benchmark/") {
			b, err := os.ReadFile(path)
			tr.lines += bytes.Count(b, []byte("\n"))
			return err
		}
		return nil
	})
	return tr, err
})

// plant returns the tree with content added at path; a Go file is
// type-checked alone, as a package of path's directory.
func (tr *tree) plant(path string, content []byte) (*tree, error) {
	out := *tr
	out.paths = append(slices.Clone(tr.paths), path)
	out.sources = slices.Clone(tr.sources)
	if !strings.HasSuffix(path, ".go") {
		return &out, nil
	}
	f, err := parser.ParseFile(tr.fset, path, content, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	pkg := strings.TrimSuffix("repro/"+filepath.Dir(path), "/.")
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: tr.imp}).Check(pkg, tr.fset, []*ast.File{f}, info); err != nil {
		return nil, err
	}
	out.sources = append(out.sources, newSource(tr.fset, f, "", pkg, info))
	if !strings.HasSuffix(path, "_test.go") {
		out.lines += bytes.Count(content, []byte("\n"))
	}
	return &out, nil
}

// newSource lists f's refs, through info when f was type-checked and
// through f's imports and its type expressions when it was only parsed.
func newSource(fset *token.FileSet, f *ast.File, root, pkg string, info *types.Info) source {
	name := fset.Position(f.Pos()).Filename
	if root != "" {
		name, _ = filepath.Rel(root, name)
	}
	s := source{path: filepath.ToSlash(name), pkg: pkg, test: strings.HasSuffix(name, "_test.go")}
	local := map[string]string{}
	for _, spec := range f.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		s.imports = append(s.imports, path)
		elems := strings.Split(path, "/")
		name := elems[len(elems)-1]
		if len(elems) > 1 && strings.TrimLeft(name, "v0123456789") == "" {
			name = elems[len(elems)-2] // math/rand/v2 is package rand
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		local[name] = path
	}
	byName := func(p *types.Package) string { return p.Name() }
	typs := map[*ast.Ident]string{} // a parsed-only file's declared variables
	visit := func(d ast.Node, encl string, fd *ast.FuncDecl) {
		ast.Inspect(d, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			line := fset.Position(n.Pos()).Line
			switch n := n.(type) {
			case *ast.GoStmt:
				s.refs = append(s.refs, ref{name: "go", key: "go", encl: encl, line: line})
			case *ast.Field:
				for _, id := range n.Names {
					typs[id] = types.ExprString(n.Type)
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					if n.Type != nil {
						typs[id] = types.ExprString(n.Type)
					}
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && info == nil && local[x.Name] != "" {
					s.refs = append(s.refs, ref{name: n.Sel.Name, key: local[x.Name] + "." + n.Sel.Name, encl: encl, line: line})
					return false
				}
			case *ast.Ident:
				r := ref{name: n.Name, encl: encl, line: line}
				switch {
				case info != nil:
					obj := info.Uses[n]
					if obj == nil {
						obj, r.def = info.Defs[n], true
					}
					if r.key = objectKey(obj); obj != nil && obj.Pkg() == nil {
						r.key = obj.Name()
					}
					if v, ok := obj.(*types.Var); ok {
						r.typ = types.TypeString(v.Type(), byName)
					}
				case fd != nil && n == fd.Name:
					r.key, r.def = pkg+"."+encl, true
				default:
					r.typ = typs[n]
				}
				s.refs = append(s.refs, r)
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			encl := d.Name.Name
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				encl = recv.(*ast.Ident).Name + "." + encl
			}
			visit(d, encl, d)
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					visit(sp, sp.Name.Name, nil)
				case *ast.ValueSpec:
					visit(sp, sp.Names[0].Name, nil)
				}
			}
		}
	}
	return s
}

// matcher compiles an entry of a names column: a bare glob matches the
// identifier, "name=type" a variable of that name whose type, spaces
// dropped, starts with type, ".M" any package-level object or method M,
// "P/..." the package P and those under it, and a qualified name (pkg.Name,
// pkg.T.M) the object's key from any path element on.
func matcher(entry string) func(ref) bool {
	glob, bare := strings.ContainsAny(entry, "*?["), !strings.ContainsAny(entry, "./")
	name, typ, isVar := strings.Cut(entry, "=")
	switch {
	case isVar:
		return func(r ref) bool {
			return r.name == name && r.typ != "" && strings.HasPrefix(strings.ReplaceAll(r.typ, " ", ""), typ)
		}
	case entry[0] == '.':
		return func(r ref) bool { return strings.HasSuffix(r.key, entry) }
	case strings.HasSuffix(entry, "/..."):
		return func(r ref) bool { return under(r.key, strings.TrimSuffix(entry, "/...")) }
	case bare && !glob:
		return func(r ref) bool { return r.name == entry }
	case bare:
		return func(r ref) bool { ok, _ := path.Match(entry, r.name); return ok }
	case !glob:
		return func(r ref) bool { return r.key == entry || strings.HasSuffix(r.key, "/"+entry) }
	}
	return func(r ref) bool {
		for k := r.key; k != ""; {
			if ok, _ := path.Match(entry, k); ok {
				return true
			}
			_, k, _ = strings.Cut(k, "/")
		}
		return false
	}
}

// under reports whether file path p is, or lies under, path entry e.
func under(p, e string) bool { return p == e || strings.HasPrefix(p, e+"/") }

// in reports whether source s lies in the scope: "./..." is the module,
// "benchmark" its module, "deps:PKG" every package PKG links, "+tests"
// adds test files, "-PATH" drops a file or directory, and any other word
// is a file or a directory.
func (tr *tree) in(scope []string, s source) bool {
	if s.test && !slices.Contains(scope, "+tests") {
		return false
	}
	in := false
	for _, e := range scope {
		switch pkg, isDeps := strings.CutPrefix(e, "deps:"); {
		case strings.HasPrefix(e, "-"):
			if under(s.path, e[1:]) {
				return false
			}
		case e == "./...":
			in = in || !under(s.path, "benchmark")
		case isDeps:
			in = in || slices.Contains(tr.deps["repro/"+pkg], s.pkg)
		case e != "+tests":
			in = in || under(s.path, e)
		}
	}
	return in
}

// check returns the rule's violations, each ending in the row's item and
// reason.
func (tr *tree) check(g guard) []string {
	var out []string
	report := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...)+fmt.Sprintf(" (%s: %s)", g.item, g.reason))
	}
	match := make([]func(ref) bool, len(g.names))
	for i, n := range g.names {
		match[i] = matcher(n)
	}
	named := func(r ref) string {
		for i, m := range match {
			if m(r) {
				return g.names[i]
			}
		}
		return ""
	}
	// allow reports whether an allowed entry covers path (and, for a FILE:F
	// entry, encl), and counts the entry as used.
	used := map[string]bool{}
	allow := func(path, encl string) bool {
		for _, a := range g.allowed {
			if under(path, a) || a == path+":"+encl {
				used[a] = true
				return true
			}
		}
		return false
	}
	switch g.kind {
	case "retired", "callers":
		verb := map[string]string{"retired": "is back", "callers": "is used outside the row's allowed entries"}[g.kind]
		for _, s := range tr.sources {
			if !tr.in(g.scope, s) {
				continue
			}
			for _, r := range s.refs {
				if g.kind == "callers" && r.def {
					continue
				}
				if n := named(r); n != "" && (g.kind == "retired" || !allow(s.path, r.encl)) {
					report("%s:%d: in %s, %s %s", s.path, r.line, r.encl, n, verb)
				}
			}
		}
	case "importers":
		for _, s := range tr.sources {
			if !tr.in(g.scope, s) {
				continue
			}
			for _, imp := range s.imports {
				if named(ref{name: imp, key: imp}) != "" && !allow(s.path, "") {
					report("%s imports %s", s.path, imp)
				}
			}
		}
	case "reachable":
		// A package is imported from another one: by a built non-test file
		// of the scope, or, for a test-support package (its last element
		// ends in "test"), by a test file of the module.
		imported := map[string]bool{}
		for _, s := range tr.sources {
			if !s.test {
				imported[s.pkg] = false
			}
		}
		for _, s := range tr.sources {
			if !tr.in(g.scope, s) || s.ignored {
				continue
			}
			for _, imp := range s.imports {
				helper := strings.HasSuffix(path.Base(imp), "test")
				if imp != s.pkg && s.test == helper && !(helper && under(s.path, "benchmark")) {
					imported[imp] = true
				}
			}
		}
		for _, p := range slices.Sorted(maps.Keys(imported)) {
			if !imported[p] && named(ref{key: p}) != "" {
				report("%s has no importer outside its own directory", p)
			}
		}
	case "files":
		var got []string
		for _, p := range tr.paths {
			hit := false
			for _, pat := range g.scope {
				name, drop := p, strings.HasPrefix(pat, "-")
				pat = strings.TrimPrefix(pat, "-")
				if rest, ok := strings.CutPrefix(pat, "**/"); ok {
					pat, name = rest, path.Base(p)
				}
				if ok, _ := path.Match(pat, name); ok {
					hit = !drop
					if drop {
						break
					}
				}
			}
			if hit {
				got = append(got, p)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, slices.Sorted(slices.Values(g.names))) {
			report("%s matches %s, want %s", strings.Join(g.scope, " "), strings.Join(got, " "), strings.Join(g.names, " "))
		}
	case "house":
		if want := strings.Join(g.names, ""); strconv.Itoa(tr.lines) != want {
			report("the house holds %d non-test Go lines, the row %s: a change that grows or shrinks it sets the row to the new count in its own diff", tr.lines, want)
		}
	}
	for _, a := range g.allowed {
		if !used[a] {
			report("%s is allowed but uses none of %s: drop it from the row", a, strings.Join(g.names, " "))
		}
	}
	return out
}
