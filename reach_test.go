package dace_test

// The reachability gate: every function, method and package-level var, type
// and const that a non-test file of the module declares must be reachable
// from a main package (cmd/*, examples/*, benchmark). Code only tests call is
// deleted, moved into a _test.go file, or named in reachAllowlist with the
// reason it stays.
//
// Roots are each main, each init and each package-level var initializer of
// the packages a main links. Edges are the static references go/types
// records in a live declaration (types.Info.Uses: calls, method selections,
// method values, types, vars and consts). Dynamic dispatch is handled by
// name, conservatively: a method is live when live code calls any interface
// method of that name, or when its type implements an interface of a
// standard-library package the module imports (fmt.Stringer, error,
// http.Handler, json.Marshaler, sort.Interface, ...), whose callers are not
// scanned.

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the declarations that stay although no main reaches
// them, one reason each: code the tests of more than one package need.
var reachAllowlist = map[string]string{
	"dace/internal/core.NewAdapterSet": "the tests of core, tenant, serve and gateway build tenants' adapter sets with it",
	"dace/internal/nn.GradCheck":       "the finite-difference reference the gradient tests of nn and core check the tape against",
	"dace/internal/nn.Tape.Backward":   "the one-item gradient pass GradCheck and the gradient tests of nn and core run a tape through; training reaches the same pass through GradPool",
}

func TestEveryDeclarationIsReachable(t *testing.T) {
	dead, err := unreachable(".")
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, d := range dead {
		flagged[d.name] = true
		if _, ok := reachAllowlist[d.name]; !ok {
			t.Errorf("%s: %s is reachable from no main package: delete it, move it into a _test.go file, or allowlist it with a reason", d.pos, d.name)
		}
	}
	for name := range reachAllowlist {
		if !flagged[name] {
			t.Errorf("allowlisted %s is reachable or gone: drop it from reachAllowlist", name)
		}
	}
}

// The gate flags an uncalled function and one that only a test calls, and
// keeps a method that live code reaches only through an interface.
func TestReachGateSelfTest(t *testing.T) {
	dead, err := unreachable(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	want := []string{"reachdemo/lib.CalledByTestOnly", "reachdemo/lib.Uncalled"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flagged %v, want %v", got, want)
	}
}

// listedPackage is the part of `go list -json` output the gate reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Deps       []string
}

// reachDecl is one package-level declaration of a non-test file: node is
// what it references once it is live.
type reachDecl struct {
	name string // import path, then "." [receiver type "."] identifier
	pos  token.Position
	info *types.Info
	node ast.Node
	live bool
}

// reachRoot is code that runs whenever its package is linked: a main, an
// init, or a package-level var initializer.
type reachRoot struct {
	pkg  string
	info *types.Info
	node ast.Node
}

type reachGraph struct {
	fset    *token.FileSet
	root    string // the module directory positions are relative to
	decls   map[types.Object]*reachDecl
	methods map[string][]*reachDecl // method name -> its declarations
	dynamic map[string]bool         // interface method names live code calls
	named   []*types.TypeName       // non-generic defined types
	roots   []reachRoot
	work    []*reachDecl
}

// unreachable type-checks every package of the module rooted at dir and
// returns its declarations that no main package reaches, sorted by name.
func unreachable(dir string) ([]*reachDecl, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []*listedPackage
	exports := map[string]string{} // standard-library import path -> export data file
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			pkgs = append(pkgs, p)
		}
	}

	g := &reachGraph{
		fset:    token.NewFileSet(),
		root:    root,
		decls:   map[types.Object]*reachDecl{},
		methods: map[string][]*reachDecl{},
		dynamic: map[string]bool{},
	}
	std := importer.ForCompiler(g.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	linked := map[string]bool{}
	stdImports := map[string]bool{}
	// go list -deps prints each package after its dependencies, so every
	// module import is checked before its importer.
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(g.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			for _, is := range f.Imports {
				if path := strings.Trim(is.Path.Value, `"`); exports[path] != "" {
					stdImports[path] = true
				}
			}
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		tp, err := (&types.Config{Importer: imp}).Check(p.ImportPath, g.fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = tp
		if p.Name == "main" {
			linked[p.ImportPath] = true
			for _, d := range p.Deps {
				linked[d] = true
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				g.declare(p, info, d)
			}
		}
	}

	for _, r := range g.roots {
		if linked[r.pkg] {
			g.scan(r.info, r.node)
		}
	}
	g.keepStdInterfaceMethods(stdInterfaces(stdImports, std))
	for len(g.work) > 0 {
		d := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		g.scan(d.info, d.node)
	}

	var dead []*reachDecl
	for _, d := range g.decls {
		if !d.live {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declare records the package-level declarations d makes and the roots it
// holds.
func (g *reachGraph) declare(p *listedPackage, info *types.Info, d ast.Decl) {
	add := func(id *ast.Ident, name string, node ast.Node) *reachDecl {
		rd := &reachDecl{name: p.ImportPath + "." + name, pos: g.fset.Position(id.Pos()), info: info, node: node}
		if rel, err := filepath.Rel(g.root, rd.pos.Filename); err == nil {
			rd.pos.Filename = rel
		}
		g.decls[info.Defs[id]] = rd
		return rd
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		switch {
		case d.Recv != nil:
			recv := info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			m := add(d.Name, recv.(*types.Named).Obj().Name()+"."+d.Name.Name, d)
			g.methods[d.Name.Name] = append(g.methods[d.Name.Name], m)
		case d.Name.Name == "init" || (p.Name == "main" && d.Name.Name == "main"):
			g.roots = append(g.roots, reachRoot{p.ImportPath, info, d})
		default:
			add(d.Name, d.Name.Name, d)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				add(s.Name, s.Name.Name, s)
				if tn, ok := info.Defs[s.Name].(*types.TypeName); ok && s.TypeParams == nil && !s.Assign.IsValid() {
					g.named = append(g.named, tn)
				}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					if id.Name != "_" {
						add(id, id.Name, s)
					}
				}
				if d.Tok == token.VAR {
					for _, v := range s.Values {
						g.roots = append(g.roots, reachRoot{p.ImportPath, info, v})
					}
				}
			}
		}
	}
}

func (g *reachGraph) mark(d *reachDecl) {
	if d != nil && !d.live {
		d.live = true
		g.work = append(g.work, d)
	}
}

// scan marks live everything node references.
func (g *reachGraph) scan(info *types.Info, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				if !g.dynamic[obj.Name()] {
					g.dynamic[obj.Name()] = true
					for _, m := range g.methods[obj.Name()] {
						g.mark(m)
					}
				}
				return true
			}
			g.mark(g.decls[obj.Origin()])
		case *types.Var:
			g.mark(g.decls[obj.Origin()])
		case types.Object:
			g.mark(g.decls[obj])
		}
		return true
	})
}

// keepStdInterfaceMethods marks live each method through which one of the
// module's types implements one of ifaces.
func (g *reachGraph) keepStdInterfaceMethods(ifaces []*types.Interface) {
	for _, tn := range g.named {
		t := tn.Type()
		if types.IsInterface(t) {
			continue
		}
		for _, iface := range ifaces {
			if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m, _, _ := types.LookupFieldOrMethod(t, true, tn.Pkg(), iface.Method(i).Name())
				if fn, ok := m.(*types.Func); ok {
					g.mark(g.decls[fn.Origin()])
				}
			}
		}
	}
}

// stdInterfaces returns error and the non-empty, non-generic interfaces the
// standard-library packages in paths export.
func stdInterfaces(paths map[string]bool, std types.Importer) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for path := range paths {
		p, err := std.Import(path)
		if err != nil {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				ifaces = append(ifaces, it)
			}
		}
	}
	return ifaces
}
