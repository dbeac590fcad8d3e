package aryn

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// deadAllow lists the functions under internal/ that stay although no
// non-test file uses them, by qualified name (package.Func or
// package.Type.Method), one reason each. A name here keeps that one
// declaration, not every declaration that shares its last element.
var deadAllow = map[string]string{
	"docmodel.Document.AddElement": "docmodel's test builder: tests in four packages build documents with it",
	"docmodel.Document.AddChild":   "docmodel's test builder, beside AddElement",
	"docmodel.TableData.Cell":      "the reference the table tests hold Markdown's anchored index to",
	"docparse.WithSegmenter":       "the seam a test plugs a competitor segmentation model into",
	"llm.Scripted.Calls":           "what the cross-package test fake (llm.Scripted) was asked: the tests' view of its traffic",
	"analyzertest.Run":             "the analyzers' golden-test harness: the package exists for their tests, as net/http/httptest does",
}

// simParserFiles are the only non-test files that may refer to the Sim's
// keyword planner, luna's parser and parseState types: the parser itself
// and the planner skill that answers planning prompts with it. Production
// code, follow-ups included, plans through the model (ROADMAP item 10).
var simParserFiles = []string{"internal/luna/parser.go", "internal/luna/skill.go"}

// deadArches are the file sets the gate checks: build-constrained files
// differ between them (internal/simd), and CI runs on both.
var deadArches = []struct{ goos, goarch string }{
	{"linux", "amd64"},
	{"darwin", "arm64"},
}

// TestNoDeadCode fails on any function or method declared in a non-test
// file under internal/ that no non-test file in internal/, cmd/,
// examples/ or bench/, nor the root bench_test.go (it regenerates the
// paper's tables), uses. Uses are resolved by type, so a function does
// not live on because another one shares its name, and a method counts as
// used when a type whose method set holds it satisfies an interface that
// declares it (error, fmt.Stringer, json.Marshaler, llm.Client, ...).
// A function that only calls itself is not used. Keepers go in deadAllow.
// The same walk fails on any reference to the Sim's parser outside
// simParserFiles.
func TestNoDeadCode(t *testing.T) {
	dead, parserRefs, err := findDead(".", []string{"internal", "cmd", "examples", "bench"}, []string{"bench_test.go"})
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range parserRefs {
		t.Errorf("%s refers to the Sim's parser: only %s may", pos, strings.Join(simParserFiles, " and "))
	}
	seen := map[string]bool{}
	for _, d := range dead {
		seen[d.name] = true
		if _, ok := deadAllow[d.name]; !ok {
			t.Errorf("%s: %s has no caller outside tests: delete it, or add it to deadAllow with a reason", d.pos, d.name)
		}
	}
	for name := range deadAllow {
		if !seen[name] {
			t.Errorf("deadAllow: %s is not a declared function without callers: remove its entry", name)
		}
	}
}

// TestNoDeadCodeFixture runs the scan over a module built to hold the
// cases a name-based check gets wrong.
func TestNoDeadCodeFixture(t *testing.T) {
	dead, _, err := findDead(filepath.Join("testdata", "deadcode"), []string{"internal", "cmd"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	// Counter.Total shares its name with a read field and a called method
	// of another type; helper is called only from a _test.go file.
	// Square.Area (reached through Shape) and New (called) are live.
	want := []string{"shapes.Counter.Total", "shapes.helper"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("reported %q, want %q", got, want)
	}
}

type deadFunc struct {
	name string // package.Func or package.Type.Method
	pos  token.Position
}

// findDead type-checks, for each of deadArches, every non-test package
// under the given directories of the module at root (a directory holding
// its own go.mod is a module of its own that may import root's), plus the
// given single files as a package each. It returns the functions declared
// in non-test files under root/internal that none of them uses, sorted by
// name and merged across the file sets, and the file:line positions, in
// order, that refer to the Sim's parser outside simParserFiles.
func findDead(root string, dirs, files []string) ([]deadFunc, []string, error) {
	// The standard library is type-checked from source, without cgo so that
	// no C toolchain runs and every host sees the same files.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)

	found := map[string]deadFunc{}
	refs := map[string]bool{}
	for _, a := range deadArches {
		ctxt := build.Default
		ctxt.GOOS, ctxt.GOARCH = a.goos, a.goarch
		s := &deadScan{fset: fset, ctxt: &ctxt, std: std, pkgs: map[string]*deadPkg{}}
		if err := s.addModule(root); err != nil {
			return nil, nil, err
		}
		var pkgDirs []string
		for _, d := range dirs {
			err := filepath.WalkDir(filepath.Join(root, d), func(p string, e os.DirEntry, err error) error {
				if err != nil || !e.IsDir() {
					return err
				}
				if n := e.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					if err := s.addModule(p); err != nil {
						return err
					}
				}
				pkgDirs = append(pkgDirs, p)
				return nil
			})
			if err != nil {
				return nil, nil, err
			}
		}
		for _, d := range pkgDirs {
			path, err := s.importPath(d)
			if err != nil {
				return nil, nil, err
			}
			if _, err := s.load(path, d, nil); err != nil {
				return nil, nil, err
			}
		}
		for _, f := range files {
			if _, err := s.load(f, root, []string{filepath.Join(root, f)}); err != nil {
				return nil, nil, err
			}
		}
		for _, d := range s.dead(filepath.Join(root, "internal")) {
			found[d.pos.String()] = d
		}
		for _, pos := range s.simParserRefs(root) {
			refs[pos] = true
		}
	}
	out := make([]deadFunc, 0, len(found))
	for _, d := range found {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].pos.String() < out[j].pos.String()
	})
	return out, slices.Sorted(maps.Keys(refs)), nil
}

type deadScan struct {
	fset *token.FileSet
	ctxt *build.Context
	std  types.ImporterFrom
	mods []deadModule // longest path first
	pkgs map[string]*deadPkg
	list []*deadPkg // in load order
}

type deadModule struct{ path, dir string }

type deadPkg struct {
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func (s *deadScan) addModule(dir string) error {
	f, err := os.Open(filepath.Join(dir, "go.mod"))
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			s.mods = append(s.mods, deadModule{strings.TrimSpace(mod), filepath.Clean(dir)})
			sort.Slice(s.mods, func(i, j int) bool { return len(s.mods[i].path) > len(s.mods[j].path) })
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("%s: no module line", f.Name())
}

// importPath maps a directory to its import path by the module that holds it.
func (s *deadScan) importPath(dir string) (string, error) {
	dir = filepath.Clean(dir)
	for _, m := range s.mods {
		if rel, err := filepath.Rel(m.dir, dir); err == nil && !strings.HasPrefix(rel, "..") {
			if rel == "." {
				return m.path, nil
			}
			return m.path + "/" + filepath.ToSlash(rel), nil
		}
	}
	return "", fmt.Errorf("%s is in no module", dir)
}

// moduleDir maps an import path to its directory, or "" outside the modules.
func (s *deadScan) moduleDir(path string) string {
	for _, m := range s.mods {
		if path == m.path {
			return m.dir
		}
		if rest, ok := strings.CutPrefix(path, m.path+"/"); ok {
			return filepath.Join(m.dir, filepath.FromSlash(rest))
		}
	}
	return ""
}

func (s *deadScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *deadScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if d := s.moduleDir(path); d != "" {
		p, err := s.load(path, d, nil)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return s.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks the non-test files of dir that the file set
// selects (or the given files), once per import path.
func (s *deadScan) load(path, dir string, names []string) (*deadPkg, error) {
	if p, ok := s.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	s.pkgs[path] = nil
	if names == nil {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			if ok, err := s.ctxt.MatchFile(dir, n); err != nil {
				return nil, err
			} else if ok {
				names = append(names, filepath.Join(dir, n))
			}
		}
	}
	p := &deadPkg{dir: dir, info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, n := range names {
		f, err := parser.ParseFile(s.fset, n, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		delete(s.pkgs, path)
		return p, nil // a directory with no Go files for this file set
	}
	conf := types.Config{Importer: s, Sizes: types.SizesFor("gc", s.ctxt.GOARCH)}
	tp, err := conf.Check(path, s.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s (%s/%s): %w", path, s.ctxt.GOOS, s.ctxt.GOARCH, err)
	}
	p.types = tp
	s.pkgs[path] = p
	s.list = append(s.list, p)
	return p, nil
}

// dead returns the functions declared under declDir that nothing loaded uses.
func (s *deadScan) dead(declDir string) []deadFunc {
	// Where each function is declared, so that a call inside its own body
	// does not count.
	body := map[*types.Func]*ast.FuncDecl{}
	var decls []*types.Func
	for _, p := range s.list {
		under := p.dir == declDir || strings.HasPrefix(p.dir, declDir+string(filepath.Separator))
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				body[fn] = fd
				if under && fd.Name.Name != "init" && fd.Name.Name != "_" && fd.Name.Name != "main" {
					decls = append(decls, fn)
				}
			}
		}
	}

	used := map[*types.Func]bool{}
	for _, p := range s.list {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fd := body[fn]; fd != nil && id.Pos() >= fd.Pos() && id.Pos() < fd.End() {
				continue
			}
			used[fn] = true
		}
	}
	s.markInterfaceMethods(used)

	var out []deadFunc
	for _, fn := range decls {
		if used[fn] {
			continue
		}
		name := fn.Pkg().Name() + "." + fn.Name()
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				name = fn.Pkg().Name() + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
		out = append(out, deadFunc{name: name, pos: s.fset.Position(fn.Pos())})
	}
	return out
}

// simParserRefs returns the file:line of every expression, in a loaded
// file outside simParserFiles, whose type is luna's parser or parseState
// or a pointer to one: a type name, a literal, a variable, the receiver of
// a method call.
func (s *deadScan) simParserRefs(root string) []string {
	var out []string
	for _, p := range s.list {
		for expr, tv := range p.info.Types {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "aryn/internal/luna" {
				continue
			}
			if n := named.Obj().Name(); n != "parser" && n != "parseState" {
				continue
			}
			pos := s.fset.Position(expr.Pos())
			if rel, err := filepath.Rel(root, pos.Filename); err == nil && slices.Contains(simParserFiles, filepath.ToSlash(rel)) {
				continue
			}
			out = append(out, fmt.Sprintf("%s:%d", pos.Filename, pos.Line))
		}
	}
	return out
}

// markInterfaceMethods marks as used every method that an interface
// declares and that a named type of the loaded packages, or a pointer to
// one, satisfying that interface holds in its method set. The interfaces
// are error, those errors.Is, As and Unwrap assert, those the loaded
// packages declare or spell as literals, and those the standard library
// declares in a package the type's own package imports, directly or not:
// Batcher.Flush matches http.Flusher, but nothing in internal/llm's
// imports can call it as one.
func (s *deadScan) markInterfaceMethods(used map[*types.Func]bool) {
	asIface := func(t types.Type) *types.Interface {
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			return it
		}
		return nil
	}
	// declared returns the interfaces a package declares at package level.
	declared := func(pkg *types.Package) []*types.Interface {
		var out []*types.Interface
		for _, n := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it := asIface(tn.Type()); it != nil {
				out = append(out, it)
			}
		}
		return out
	}

	var common []*types.Interface
	// error, and what errors.Is, As and Unwrap assert: interfaces the
	// errors package declares inside function bodies, which the source
	// importer does not read.
	for _, lit := range []string{"error", "interface{ Unwrap() error }", "interface{ Unwrap() []error }", "interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, err := types.Eval(s.fset, nil, token.NoPos, lit)
		if err != nil {
			panic(err)
		}
		common = append(common, asIface(tv.Type))
	}
	loaded := map[*types.Package]bool{}
	for _, p := range s.list {
		loaded[p.types] = true
		common = append(common, declared(p.types)...)
		for _, tv := range p.info.Types {
			if _, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				if it := asIface(tv.Type); it != nil {
					common = append(common, it)
				}
			}
		}
	}
	std := map[*types.Package][]*types.Interface{}
	for _, p := range s.list {
		ifaces := slices.Clip(common)
		seen := map[*types.Package]bool{}
		var visit func(*types.Package)
		visit = func(pkg *types.Package) {
			if seen[pkg] {
				return
			}
			seen[pkg] = true
			if !loaded[pkg] {
				if _, ok := std[pkg]; !ok {
					std[pkg] = declared(pkg)
				}
				ifaces = append(ifaces, std[pkg]...)
			}
			for _, imp := range pkg.Imports() {
				visit(imp)
			}
		}
		visit(p.types)

		for _, n := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() || asIface(tn.Type()) != nil {
				continue
			}
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				ms := types.NewMethodSet(t)
				if ms.Len() == 0 {
					continue
				}
				for _, it := range ifaces {
					if ms.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(t, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
							used[sel.Obj().(*types.Func).Origin()] = true
						}
					}
				}
			}
		}
	}
}
