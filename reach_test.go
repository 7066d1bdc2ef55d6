package melissa_test

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachGolden lists the declarations no binary reaches that stay anyway, one
// per line: the symbol, exactly one reason tag, and the test that needs it.
const reachGolden = "testdata/reach.golden"

// reachTags are the only reasons a declaration may outlive its last
// production caller:
//
//	oracle  a test compares production output against it
//	hook    a test turns on fault or debug injection through it
//	probe   a test reads state production does not expose
var reachTags = []string{"oracle", "hook", "probe"}

// TestReachCensus type-checks the module's non-test code and the bench
// module, walks every reference from the roots a binary can start at, and
// requires each declaration nothing reaches to be listed in reachGolden with
// its reason. Roots: main and init functions, package-level variables, the
// exported API of the root package, and everything bench/ declares. Files
// under tools/ and _test.go files are not roots: code only they reach is dead
// to every binary. A method is live when live code selects it, or when its
// receiver type is live and its name is the name of some interface method
// (dynamic dispatch is not traced).
func TestReachCensus(t *testing.T) {
	c := newCensus(t)
	unreached := c.unreached()

	golden := readReachGolden(t)
	for name, test := range golden {
		if !c.tests[test] {
			t.Errorf("%s: %s names %s, which no _test.go file declares", reachGolden, name, test)
		}
	}
	total := 0
	for _, d := range unreached {
		total += d.lines
		if _, ok := golden[d.name]; !ok {
			t.Errorf("%s (%s, %d lines) is reachable from no binary: delete it, or list it in %s with a tag (%s) and the test that needs it",
				d.name, d.pos, d.lines, reachGolden, strings.Join(reachTags, "|"))
		}
		delete(golden, d.name)
	}
	for name := range golden {
		if c.declared[name] {
			t.Errorf("%s is listed in %s but a binary now reaches it: remove the line", name, reachGolden)
		} else {
			t.Errorf("%s is listed in %s but no longer declared: remove the line", name, reachGolden)
		}
	}
	t.Logf("%d declarations (%d lines) reachable only from tests", len(unreached), total)
}

// readReachGolden parses reachGolden into symbol → the test that needs it,
// failing on any line without exactly one tag.
func readReachGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(reachGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		tags := 0
		for _, w := range fields[1:] {
			if slices.Contains(reachTags, w) {
				tags++
			}
		}
		switch {
		case len(fields) < 3 || !slices.Contains(reachTags, fields[1]) || tags != 1:
			t.Errorf("%s:%d: want `symbol tag test…` with exactly one tag of %v: %q", reachGolden, n, reachTags, line)
		case out[fields[0]] != "":
			t.Errorf("%s:%d: %s listed twice", reachGolden, n, fields[0])
		default:
			out[fields[0]] = fields[2]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// decl is one top-level declaration: a function, method, type, variable or
// constant.
type decl struct {
	name  string // import path below the module, then [receiver.]name
	pos   token.Position
	lines int // including its doc comment
	uses  []types.Object
}

type census struct {
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*types.Package // by import path, module packages only
	info     map[string]*types.Info
	files    map[string][]*ast.File
	decls    map[types.Object]*decl
	methods  map[*types.TypeName][]*types.Func // declared methods by receiver base type
	iface    map[string]bool                   // every interface method name seen
	roots    []types.Object
	declared map[string]bool
	tests    map[string]bool // Test functions the module's _test.go files declare
}

const modulePath = "melissa"

func newCensus(t *testing.T) *census {
	t.Helper()
	fset := token.NewFileSet()
	c := &census{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     map[string]*types.Package{},
		info:     map[string]*types.Info{},
		files:    map[string][]*ast.File{},
		decls:    map[types.Object]*decl{},
		methods:  map[*types.TypeName][]*types.Func{},
		iface:    map[string]bool{"Error": true},
		declared: map[string]bool{},
		tests:    map[string]bool{},
	}
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || path == "bench" || path == "tools") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if err := c.collectTests(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := c.load(importPath(dir)); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			t.Fatal(err)
		}
	}
	// bench/ is its own module and a frozen consumer: all of it is a root.
	benchPkg, benchFiles, benchInfo, err := c.check("melissa/bench", "bench")
	if err != nil {
		t.Fatal(err)
	}
	c.collectIfaces(benchPkg, benchInfo, map[*types.Package]bool{})
	for _, f := range benchFiles {
		for _, id := range identsOf(f) {
			if obj := c.canonical(benchInfo.Uses[id]); obj != nil {
				c.roots = append(c.roots, obj)
			}
		}
	}
	seen := map[*types.Package]bool{}
	for path, pkg := range c.pkgs {
		c.collectIfaces(pkg, c.info[path], seen)
		c.collectDecls(path, pkg)
	}
	return c
}

func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(dir)
}

func (c *census) Import(path string) (*types.Package, error) {
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		return c.load(path)
	}
	return c.std.Import(path)
}

// load type-checks the module package at path (once).
func (c *census) load(path string) (*types.Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
	if dir == "" {
		dir = "."
	}
	pkg, files, info, err := c.check(path, dir)
	if err != nil {
		return nil, err
	}
	c.pkgs[path], c.files[path], c.info[path] = pkg, files, info
	return pkg, nil
}

// check parses the non-test files of dir that the default build context
// selects and type-checks them as package path.
func (c *census) check(path, dir string) (*types.Package, []*ast.File, *types.Info, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	return pkg, files, info, err
}

// collectTests records the Test functions the _test.go files of dir declare.
func (c *census) collectTests(dir string) error {
	bp, err := build.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		return nil
	} else if err != nil {
		return err
	}
	for _, name := range append(bp.TestGoFiles, bp.XTestGoFiles...) {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				c.tests[fn.Name.Name] = true
			}
		}
	}
	return nil
}

// collectIfaces records the method names of every interface type pkg, its
// imports, and its expressions mention.
func (c *census) collectIfaces(pkg *types.Package, info *types.Info, seen map[*types.Package]bool) {
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				c.iface[it.Method(i).Name()] = true
			}
		}
	}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(pkg)
	if info != nil {
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
}

// collectDecls records every top-level declaration of a module package with
// what it references, and adds the roots it contributes.
func (c *census) collectDecls(path string, pkg *types.Package) {
	info := c.info[path]
	rel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
	if rel == "" {
		rel = modulePath
	}
	isMain := pkg.Name() == "main"
	add := func(obj types.Object, node ast.Node, doc *ast.CommentGroup, recv string) {
		start := node.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		name := obj.Name()
		if recv != "" {
			name = recv + "." + name
		}
		d := &decl{
			name:  rel + "." + name,
			pos:   c.fset.Position(node.Pos()),
			lines: c.fset.Position(node.End()).Line - c.fset.Position(start).Line + 1,
		}
		for _, id := range identsOf(node) {
			if u := c.canonical(info.Uses[id]); u != nil && u != obj {
				d.uses = append(d.uses, u)
			}
		}
		c.decls[obj] = d
		c.declared[d.name] = true
	}
	for _, f := range c.files[path] {
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				fn, _ := info.Defs[gd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				recv := ""
				if r := fn.Type().(*types.Signature).Recv(); r != nil {
					tn := baseType(r.Type())
					recv = tn.Name()
					c.methods[tn] = append(c.methods[tn], fn)
				}
				add(fn, gd, gd.Doc, recv)
				switch {
				case gd.Name.Name == "init" && recv == "",
					isMain && gd.Name.Name == "main" && recv == "",
					path == modulePath && fn.Exported() && (recv == "" || ast.IsExported(recv)):
					c.roots = append(c.roots, fn)
				}
			case *ast.GenDecl:
				for _, spec := range gd.Specs {
					doc := gd.Doc
					if len(gd.Specs) > 1 || gd.Lparen.IsValid() {
						doc = nil
					}
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						obj := info.Defs[s.Name]
						add(obj, s, doc, "")
						if path == modulePath && obj.Exported() {
							c.roots = append(c.roots, obj)
						}
					case *ast.ValueSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						for _, id := range s.Names {
							obj := info.Defs[id]
							if obj == nil {
								continue
							}
							add(obj, s, doc, "")
							_, isVar := obj.(*types.Var)
							if isVar || (path == modulePath && obj.Exported()) {
								c.roots = append(c.roots, obj)
							}
						}
					}
				}
			}
		}
	}
}

// canonical maps an instantiated object to its generic origin.
func (c *census) canonical(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func baseType(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func identsOf(n ast.Node) []*ast.Ident {
	var ids []*ast.Ident
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

// unreached walks from the roots and returns the module declarations the walk
// never visits, sorted by name.
func (c *census) unreached() []*decl {
	live := map[types.Object]bool{}
	queue := slices.Clone(c.roots)
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		d, ok := c.decls[obj]
		if !ok || live[obj] {
			continue
		}
		live[obj] = true
		queue = append(queue, d.uses...)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range c.methods[tn] {
				if c.iface[m.Name()] {
					queue = append(queue, m)
				}
			}
		}
	}
	var out []*decl
	for obj, d := range c.decls {
		if !live[obj] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
