package dace_test

// The architecture gate: one type-checked pass over the module fails
// `go test .`, naming file:line, on any of three things.
//
//  1. A function, method or package-level var, type or const of a non-test
//     file that no main package (cmd/*, examples/*, benchmark) reaches.
//     Delete it, move it into a _test.go file, or name it in reachAllowlist
//     with the reason it stays.
//  2. One outside benchmark/ and examples/ that only those mains reach:
//     product code is what the commands run. benchOnly names the exceptions.
//  3. A file that breaks a row of archRules, the table of what a package
//     must not use, declare or hold.
//
// Roots are each main, each init and each package-level var initializer of
// the packages a main links; the commands' roots are walked first, and what
// benchmark's and examples' roots add after them is class 2. Edges are the
// static references go/types records in a live declaration (types.Info.Uses:
// calls, method selections, method values, types, vars and consts). Dynamic
// dispatch is handled by name, conservatively: a method is live when live
// code calls any interface method of that name, or when its type implements
// an interface of a standard-library package the module imports
// (fmt.Stringer, error, http.Handler, json.Marshaler, sort.Interface, ...),
// whose callers are not scanned.
//
// The pass reads the standard library from its export data, which
// `go list -export` provides, so it needs the go tool on PATH.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllowlist names the declarations that stay although no main reaches
// them, one reason each: code the tests of more than one package need.
var reachAllowlist = map[string]string{
	"dace/internal/core.NewAdapterSet": "the tests of core, tenant, serve and gateway build tenants' adapter sets with it",
	"dace/internal/nn.GradCheck":       "the finite-difference reference the gradient tests of nn and core check the tape against",
	"dace/internal/nn.Tape.Backward":   "the one-item gradient pass GradCheck and the gradient tests of nn and core run a tape through; training reaches the same pass through GradPool",
}

// benchOnly names the product declarations that only benchmark/ and
// examples/ reach, one reason each: the list of what goes once benchmark/
// calls the entries clients use (ROADMAP.md), and the tree entries once no
// example prices a tree.
var benchOnly = map[string]string{
	"dace/internal/core.Model.PredictSubPlansBatch":       "benchmark's layer replay times the tree batch entry; serving fans flat plans out instead",
	"dace/internal/core.Model.AppendPredictSubPlansBatch": "benchmark's layer replay times the tree batch entry; serving fans flat plans out instead",
	"dace/internal/core.Model.PredictSubPlans":            "examples/quickstart prices a tree's sub-plans; dace predict and the server read flat plans",
	"dace/internal/core.Model.AppendPredictSubPlans":      "benchmark's verify passes and examples/quickstart price trees; dace predict and the server read flat plans",
	"dace/internal/core.Scorer.Score":                     "benchmark's optimizer_dp verify scores one tree root; the optimizer prices a level through AppendScoreCandidates",
	"dace/internal/core.Scorer.Reset":                     "benchmark's optimizer_dp empties its scorers between passes; the optimizer builds a scorer per planner",
	"dace/internal/core.ScorerStats.HitRate":              "benchmark's core.scorer_hit_ratio row",
	"dace/internal/core.intSlab.reset":                    "only Scorer.Reset rewinds the slab",
	"dace/internal/plan.Node.AppendSubtreeFingerprints":   "benchmark's plan.subtree_fingerprints row; the scorer hashes only the subtrees it probes",
	"dace/internal/plan.Plan.AppendSubtreeFingerprints":   "benchmark's plan.subtree_fingerprints row; the scorer hashes only the subtrees it probes",
	"dace/internal/plan.fpScratch.walk":                   "only AppendSubtreeFingerprints walks a whole tree",
	"dace/internal/plan.fpScratchPool":                    "only AppendSubtreeFingerprints borrows the walk's scratch",
	"dace/internal/serve.NewWithConfig":                   "benchmark's fixture builds its server from a model; daced builds one over a tenant registry",
	"dace/internal/serve.Prediction":                      "benchmark decodes /predict answers into it to verify them; the server writes the document by hand",
	"dace/internal/serve.SubPlan":                         "benchmark decodes /predict answers into it to verify them; the server writes the document by hand",
}

// archRule is one row of the architecture table: in the files where
// selects, less those not carves out, nothing may match what the row
// forbids.
//
// Objects are named "<kind> <import path>.<name>", kind one of func, var,
// field, const or type, and a method or a field carries its type's name: "func dace/internal/plan.FlatPlan.Tree",
// "field dace/internal/serve.Server.bat". Types are named as
// types.TypeString writes them: "[]*dace/internal/plan.Node".
type archRule struct {
	where  []string                                // module-relative package dirs ("internal/serve"), trees ("internal/..."), or files ("internal/serve/batcher.go")
	not    []string                                // the same, carved out of where
	tests  bool                                    // the _test.go files too
	uses   *regexp.Regexp                          // an object the files refer to
	defs   *regexp.Regexp                          // an object the files declare
	types  *regexp.Regexp                          // the type of an expression in the files
	goStmt bool                                    // a go statement
	node   func(n ast.Node, info *types.Info) bool // a shape none of the above names
	build  *regexp.Regexp                          // a //go:build line, read also in the files the default build leaves out
	allow  string                                  // the one object uses and defs may name after all
	reason string
}

var re = regexp.MustCompile

// archRules holds the invariants that keep a request light and its paths
// single: what inference, serving, the admission stage and the request edge
// must never reach for.
var archRules = []archRule{{
	where:  []string{"internal/serve"},
	uses:   re(`^func .*\.Tree$`),
	reason: "serving never turns a decoded plan back into a tree: a request is a plan.FlatPlan from the socket to the model",
}, {
	where:  []string{"internal/core"},
	uses:   re(`^func dace/internal/nn\.GetTape$`),
	reason: "inference never touches the autodiff tape: training borrows its tapes through nn.GradPool",
}, {
	where:  []string{"internal/serve/batcher.go"},
	uses:   re(`^func time\.(NewTimer|After|Sleep)`),
	goStmt: true,
	reason: "the admission stage is work-conserving: no timer to linger on and no goroutine to hand a miss to",
}, {
	where:  []string{"internal/gateway"},
	uses:   re(`dace/internal/pgexplain\.|^func dace/internal/plan\.AppendBinary$|^func .*\.Fingerprint$`),
	reason: "the gateway never touches a plan tree: every encoding routes from the FlatPlan internal/wire hands it",
}, {
	where:  []string{"internal/..."},
	not:    []string{"internal/wire"},
	tests:  true,
	defs:   re(`^func [^.]*\.(queryParam|QueryParam|isBinaryContentType|IsBinaryContentType|allowOnly|AllowOnly|contentLengthValue|ContentLengthValue|plausibleTenantID|ValidateID|ValidateTenantID)$`),
	reason: "the request-edge helpers live in internal/wire alone: a second definition is a copy that will drift",
}, {
	where:  []string{"internal/...", "cmd/...", "examples/..."},
	uses:   re(`\.SetVersion$`),
	defs:   re(`\.SetVersion$`),
	reason: "a served version is never set apart from its model: Publish swaps both in one snapshot",
}, {
	where:  []string{"internal/..."},
	defs:   re(`^func .*\.[A-Za-z]*[sS]alt[A-Za-z]*$`),
	allow:  "func dace/internal/servecache.DomainSalt",
	reason: "the (domain, generation) -> cache salt function is servecache.DomainSalt and nothing else",
}, {
	where:  []string{"internal/tenant"},
	uses:   re(`^func time\.NewTicker$`),
	types:  re(`chan(<-)? \*dace/internal/tenant\.Tenant$`),
	goStmt: true,
	reason: "internal/tenant schedules nothing: no goroutine, ticker or job channel; background fine-tunes are adapt.Pool's",
}, {
	where:  []string{"internal/...", "cmd/...", "examples/..."},
	not:    []string{"internal/adapt"},
	uses:   re(`^func dace/internal/adapt\.(LoadVersion|LoadCurrent|Rollback)$`),
	reason: "an artifact version goes into service only through Controller.Load",
}, {
	where:  []string{"internal/serve"},
	tests:  true,
	types:  re(`^interface\{Busy\(\) bool\}$`),
	reason: "serve tells a busy domain by errors.Is(err, adapt.ErrBusy), not by duck-typing a Busy method",
}, {
	where:  []string{"internal/serve"},
	defs:   re(`\.Loader$`),
	reason: "serve has no Loader hook: a domain loads its artifacts through its own adapt.Controller",
}, {
	where:  []string{"internal/serve", "internal/feedback", "internal/adapt", "internal/tenant"},
	uses:   re(`^type dace/internal/plan\.(Plan|Node)$|^func .*\.(FromTree|ReadJSON)$`),
	types:  re(`dace/internal/plan\.(Plan|Node)\b`),
	reason: "between the socket and the model, on the write path as on the read path, a plan is a plan.FlatPlan",
}, {
	where:  []string{"internal/feedback"},
	uses:   re(`^func encoding/json\.Marshal`),
	reason: "the feedback log reads the legacy JSON payload and never writes it",
}, {
	where:  []string{"internal/loadgen"},
	uses:   re(`^func runtime\.GC$`),
	reason: "the load generator measures and does not judge: no forced collection in the process doing the measuring",
}, {
	where:  []string{"internal/gateway/rollout.go"},
	goStmt: true,
	reason: "a rollout is three cold handlers: no shadow traffic runs beside the routed requests",
}, {
	where:  []string{"internal/serve"},
	node:   comparesStageWithNil,
	reason: "every serve.Server runs the admission stage and telemetry: no nil check is left to switch either off",
}, {
	where:  []string{"internal/servecache"},
	uses:   re(`expires|expiredEntry|expiryAt`),
	defs:   re(`expires|expiredEntry|expiryAt`),
	reason: "the prediction cache has no TTL: a domain salt retires entries, a clock never does",
}, {
	where:  []string{"internal/serve"},
	defs:   re(`^type dace/internal/serve\.(Domain|served)$`),
	reason: "every request resolves to one *tenant.Tenant: serve keeps no domain interface or snapshot of its own",
}, {
	where:  []string{".", "benchmark/...", "cmd/...", "examples/...", "internal/..."},
	not:    []string{"internal/nn"},
	build:  re(`\bnn_(avx2|generic)\b`),
	reason: "the dispatch caps nn_avx2 and nn_generic are test-only tags of internal/nn: no product file is built with or without them",
}, {
	where:  []string{"internal/core"},
	uses:   re(`\.AppendSubtreeFingerprints$`),
	defs:   re(`\.AppendSubtreeFingerprints$`),
	reason: "the candidate scorer hashes a subtree when it probes it (plan.Node.SubtreeFingerprint), never every subtree up front",
}}

// comparesStageWithNil matches s.bat or s.tel compared with nil.
func comparesStageWithNil(n ast.Node, info *types.Info) bool {
	b, ok := n.(*ast.BinaryExpr)
	if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
		return false
	}
	for _, xy := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
		sel, ok := ast.Unparen(xy[0]).(*ast.SelectorExpr)
		if !ok || !info.Types[xy[1]].IsNil() {
			continue
		}
		if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() && v.Pkg().Path() == "dace/internal/serve" && (v.Name() == "bat" || v.Name() == "tel") {
			return true
		}
	}
	return false
}

// gate is the one pass over the module, shared by the tests that read it.
var gate = sync.OnceValues(func() (*gateReport, error) { return runGate(".", archRules) })

func TestEveryDeclarationIsReachable(t *testing.T) {
	t.Parallel()
	r, err := gate()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowlist(t, r.dead, reachAllowlist, "is reachable from no main package: delete it, move it into a _test.go file, or add it to reachAllowlist with a reason", "reachAllowlist")
}

func TestNoProductDeclarationIsBenchmarkOnly(t *testing.T) {
	t.Parallel()
	r, err := gate()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowlist(t, r.benchOnly, benchOnly, "is reachable only from benchmark/ or examples/: delete it, or add it to benchOnly with a reason", "benchOnly")
}

func TestArchitectureRules(t *testing.T) {
	t.Parallel()
	r, err := gate()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.findings {
		t.Error(f)
	}
}

// checkAllowlist fails on each flagged declaration the list does not name,
// and on each name the list holds that was not flagged.
func checkAllowlist(t *testing.T, flagged []*reachDecl, list map[string]string, fix, listName string) {
	t.Helper()
	seen := map[string]bool{}
	for _, d := range flagged {
		seen[d.name] = true
		if _, ok := list[d.name]; !ok {
			t.Errorf("%s: %s %s", d.pos, d.name, fix)
		}
	}
	for name := range list {
		if !seen[name] {
			t.Errorf("%s names %s, which is not flagged (it is reachable from cmd/*, or gone): drop it", listName, name)
		}
	}
}

// The gate flags an uncalled function, one that only a test calls and one
// that only the fixture's benchmark main calls, keeps a method that live
// code reaches only through an interface, and reports the fixture's rules
// where a renamed import, a test file or the build line of a file the
// default build leaves out breaks them — not in a comment.
func TestReachGateSelfTest(t *testing.T) {
	t.Parallel()
	rules := []archRule{{
		where:  []string{"user"},
		uses:   re(`^func reachdemo/lib\.Forbidden$`),
		reason: "user never calls lib.Forbidden",
	}, {
		where:  []string{"lib"},
		tests:  true,
		types:  re(`^interface\{Busy\(\) bool\}$`),
		reason: "no duck-typed Busy",
	}, {
		where:  []string{"user"},
		build:  re(`\bdemo_cap\b`),
		reason: "no build tag demo_cap",
	}}
	r, err := runGate(filepath.Join("testdata", "reach"), rules)
	if err != nil {
		t.Fatal(err)
	}
	names := func(ds []*reachDecl) string {
		var s []string
		for _, d := range ds {
			s = append(s, d.name)
		}
		return strings.Join(s, " ")
	}
	if got, want := names(r.dead), "reachdemo/lib.CalledByTestOnly reachdemo/lib.Uncalled"; got != want {
		t.Errorf("unreachable: %s, want %s", got, want)
	}
	if got, want := names(r.benchOnly), "reachdemo/lib.BenchOnly"; got != want {
		t.Errorf("benchmark-only: %s, want %s", got, want)
	}
	want := []string{
		"user/user.go:11: user never calls lib.Forbidden (uses func reachdemo/lib.Forbidden)",
		"user/capped.go:1: no build tag demo_cap (build constraint //go:build demo_cap)",
		"lib/lib_test.go:12: no duck-typed Busy (expression of type interface{Busy() bool})",
	}
	if strings.Join(r.findings, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(r.findings, "\n"), strings.Join(want, "\n"))
	}
}

// gateReport is what one pass finds: the declarations of each reachability
// class, sorted by name, and each rule broken, as "file:line: reason (what)"
// in the order the pass met them.
type gateReport struct {
	dead, benchOnly []*reachDecl
	findings        []string
}

// listedPackage is the part of `go list -json` output the gate reads.
type listedPackage struct {
	ImportPath     string
	Name           string
	Dir            string
	GoFiles        []string
	TestGoFiles    []string
	XTestGoFiles   []string
	IgnoredGoFiles []string
	TestImports    []string
	XTestImports   []string
	Export         string
	Standard       bool
	Deps           []string
}

// reachDecl is one package-level declaration of a non-test file: node is
// what it references once it is live.
type reachDecl struct {
	name    string // import path, then "." [receiver type "."] identifier
	pos     token.Position
	info    *types.Info
	node    ast.Node
	aux     bool // declared under benchmark/ or examples/
	live    bool
	product bool // reached from a command's roots
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
	owners  map[*types.Var]string   // struct field -> its defined type's name
	names   map[types.Object]string // objName's answers
	roots   []reachRoot
	work    []*reachDecl
}

// runGate type-checks every package of the module rooted at dir, walks its
// reachability from the mains, and checks rules against its files.
func runGate(dir string, rules []archRule) (*gateReport, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	listed, err := goList(root, "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []*listedPackage
	exports := map[string]string{} // standard-library import path -> export data file
	module := map[string]bool{}
	for _, p := range listed {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			pkgs = append(pkgs, p)
			module[p.ImportPath] = true
		}
	}

	g := &reachGraph{
		fset:    token.NewFileSet(),
		root:    root,
		decls:   map[types.Object]*reachDecl{},
		methods: map[string][]*reachDecl{},
		dynamic: map[string]bool{},
		owners:  map[*types.Var]string{},
		names:   map[types.Object]string{},
	}
	std := importer.ForCompiler(g.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	// A checker type-checks one package; a second Files call adds files to
	// it, which is how a package gains its in-package tests.
	type checker struct {
		*types.Checker
		pkg  *types.Package
		info *types.Info
	}
	checkers := map[string]checker{} // module import path -> its checker
	imp := importerFunc(func(path string) (*types.Package, error) {
		if c, ok := checkers[path]; ok {
			return c.pkg, nil
		}
		return std.Import(path)
	})
	newChecker := func(path, name string) checker {
		c := checker{pkg: types.NewPackage(path, name), info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		c.Checker = types.NewChecker(&types.Config{Importer: imp}, g.fset, c.pkg, c.info)
		return c
	}
	check := func(c checker, files []*ast.File) error {
		if err := c.Files(files); err != nil {
			return err
		}
		g.nameFields(c.pkg)
		return nil
	}

	// The rules that read tests need the export data of what only tests
	// import; list it while the module is checked.
	var testPkgs []*listedPackage
	testStd := map[string]bool{}
	for _, p := range pkgs {
		if readsTests(rules, g.rel(p.Dir), slices.Concat(p.TestGoFiles, p.XTestGoFiles)) {
			testPkgs = append(testPkgs, p)
			for _, path := range slices.Concat(p.TestImports, p.XTestImports) {
				if !module[path] && exports[path] == "" {
					testStd[path] = true
				}
			}
		}
	}
	listedTests := make(chan error, 1)
	var moreStd []*listedPackage
	go func() {
		var err error
		if len(testStd) > 0 {
			paths := make([]string, 0, len(testStd))
			for path := range testStd {
				paths = append(paths, path)
			}
			moreStd, err = goList(root, paths...)
		}
		listedTests <- err
	}()

	commands := map[string]bool{} // packages a command links
	linked := map[string]bool{}   // packages any main links
	stdImports := map[string]bool{}
	rc := ruleCheck{seen: map[string]bool{}}
	// go list -deps prints each package after its dependencies, so every
	// module import is checked before its importer.
	for _, p := range pkgs {
		files, err := g.parse(p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			for _, is := range f.Imports {
				if path := strings.Trim(is.Path.Value, `"`); exports[path] != "" {
					stdImports[path] = true
				}
			}
		}
		c := newChecker(p.ImportPath, p.Name)
		if err := check(c, files); err != nil {
			return nil, err
		}
		checkers[p.ImportPath] = c
		if p.Name == "main" {
			for _, d := range append(p.Deps, p.ImportPath) {
				linked[d] = true
				if strings.HasPrefix(g.rel(p.Dir), "cmd/") {
					commands[d] = true
				}
			}
		}
		aux := under(g.rel(p.Dir), "benchmark") || under(g.rel(p.Dir), "examples")
		for _, f := range files {
			for _, d := range f.Decls {
				g.declare(p, c.info, d, aux)
			}
			rc.file(g, f, c.info, rules, false)
		}
		if err := rc.buildLines(g, p, rules); err != nil {
			return nil, err
		}
	}

	for _, r := range g.roots {
		if commands[r.pkg] {
			g.scan(r.info, r.node)
		}
	}
	g.keepStdInterfaceMethods(stdInterfaces(stdImports, std))
	g.drain()
	for _, d := range g.decls {
		d.product = d.live
	}
	for _, r := range g.roots {
		if linked[r.pkg] && !commands[r.pkg] {
			g.scan(r.info, r.node)
		}
	}
	g.drain()

	// A package whose tests a rule reads gains its in-package test files;
	// its external test package is checked on its own, as go test builds it.
	if err := <-listedTests; err != nil {
		return nil, err
	}
	for _, p := range moreStd {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	for _, p := range testPkgs {
		for _, v := range []struct {
			c     checker
			files []string
		}{{checkers[p.ImportPath], p.TestGoFiles}, {newChecker(p.ImportPath+"_test", p.Name+"_test"), p.XTestGoFiles}} {
			if len(v.files) == 0 {
				continue
			}
			files, err := g.parse(p.Dir, v.files)
			if err != nil {
				return nil, err
			}
			if err := check(v.c, files); err != nil {
				return nil, err
			}
			for _, f := range files {
				rc.file(g, f, v.c.info, rules, true)
			}
		}
	}

	r := &gateReport{findings: rc.findings}
	for _, d := range g.decls {
		switch {
		case !d.live:
			r.dead = append(r.dead, d)
		case !d.product && !d.aux:
			r.benchOnly = append(r.benchOnly, d)
		}
	}
	for _, ds := range [][]*reachDecl{r.dead, r.benchOnly} {
		sort.Slice(ds, func(i, j int) bool { return ds[i].name < ds[j].name })
	}
	return r, nil
}

// goList runs `go list -export -deps -json` on args in dir.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json"}, args...)...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (g *reachGraph) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(g.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// rel returns path relative to the module directory, with forward slashes.
func (g *reachGraph) rel(path string) string {
	if r, err := filepath.Rel(g.root, path); err == nil {
		return filepath.ToSlash(r)
	}
	return path
}

// nameFields records the defined struct type each field of tp belongs to.
func (g *reachGraph) nameFields(tp *types.Package) {
	for _, name := range tp.Scope().Names() {
		tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				g.owners[st.Field(i)] = name
			}
		}
	}
}

// objName names obj the way archRule's regexps read it, or "" for the
// universe's objects, package names and labels.
func (g *reachGraph) objName(obj types.Object) string {
	if s, ok := g.names[obj]; ok {
		return s
	}
	s := g.nameOf(obj)
	g.names[obj] = s
	return s
}

func (g *reachGraph) nameOf(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	var kind string
	name := obj.Name()
	switch o := obj.(type) {
	case *types.Func:
		kind = "func"
		if recv := o.Origin().Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if n, ok := t.(interface{ Obj() *types.TypeName }); ok {
				name = n.Obj().Name() + "." + name
			}
		}
	case *types.Var:
		kind = "var"
		if o.IsField() {
			kind = "field"
			if owner := g.owners[o.Origin()]; owner != "" {
				name = owner + "." + name
			}
		}
	case *types.Const:
		kind = "const"
	case *types.TypeName:
		kind = "type"
	default:
		return ""
	}
	return kind + " " + obj.Pkg().Path() + "." + name
}

// under reports whether the module-relative path lies in dir.
func under(path, dir string) bool { return path == dir || strings.HasPrefix(path, dir+"/") }

// within reports whether the module-relative file matches pattern: a file,
// a package directory, or a directory tree ("internal/...").
func within(pattern, file string) bool {
	if strings.HasSuffix(pattern, ".go") {
		return file == pattern
	}
	if tree, ok := strings.CutSuffix(pattern, "/..."); ok {
		return under(filepath.ToSlash(filepath.Dir(file)), tree)
	}
	return filepath.ToSlash(filepath.Dir(file)) == pattern
}

// covers reports whether the rule reads the module-relative file, a test
// file when test is set.
func (r *archRule) covers(file string, test bool) bool {
	if test && !r.tests {
		return false
	}
	in := func(patterns []string) bool {
		for _, p := range patterns {
			if within(p, file) {
				return true
			}
		}
		return false
	}
	return in(r.where) && !in(r.not)
}

// readsTests reports whether a rule reads one of the named test files of
// dir.
func readsTests(rules []archRule, dir string, names []string) bool {
	for i := range rules {
		for _, name := range names {
			if rules[i].covers(dir+"/"+name, true) {
				return true
			}
		}
	}
	return false
}

// ruleCheck collects the rules broken, once per rule and line.
type ruleCheck struct {
	findings []string
	seen     map[string]bool
}

// report records that r is broken at line of the module-relative file name.
func (rc *ruleCheck) report(name string, line int, r *archRule, what string) {
	key := fmt.Sprintf("%s:%d: %s", name, line, r.reason)
	if !rc.seen[key] {
		rc.seen[key] = true
		rc.findings = append(rc.findings, key+" ("+what+")")
	}
}

// buildLines checks the //go:build line of each of p's files against the
// rules that read build constraints. The files the default build leaves out
// are read too: the type-checked pass never sees them, and a tag that
// switches a file on is named only there.
func (rc *ruleCheck) buildLines(g *reachGraph, p *listedPackage, rules []archRule) error {
	for _, name := range slices.Concat(p.GoFiles, p.IgnoredGoFiles, p.TestGoFiles, p.XTestGoFiles) {
		file, test := g.rel(filepath.Join(p.Dir, name)), strings.HasSuffix(name, "_test.go")
		var covering []*archRule
		for i := range rules {
			if rules[i].build != nil && rules[i].covers(file, test) {
				covering = append(covering, &rules[i])
			}
		}
		if len(covering) == 0 {
			continue
		}
		f, err := parser.ParseFile(g.fset, filepath.Join(p.Dir, name), nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Pos() > f.Package || !constraint.IsGoBuild(c.Text) {
					continue
				}
				for _, r := range covering {
					if r.build.MatchString(c.Text) {
						rc.report(file, g.fset.Position(c.Pos()).Line, r, "build constraint "+c.Text)
					}
				}
			}
		}
	}
	return nil
}

// file checks f, type-checked into info, against every rule that covers it.
func (rc *ruleCheck) file(g *reachGraph, f *ast.File, info *types.Info, rules []archRule, test bool) {
	name := g.rel(g.fset.Position(f.Package).Filename)
	var covering []*archRule
	for i := range rules {
		if rules[i].covers(name, test) {
			covering = append(covering, &rules[i])
		}
	}
	if len(covering) == 0 {
		return
	}
	report := func(n ast.Node, r *archRule, what string) {
		rc.report(name, g.fset.Position(n.Pos()).Line, r, what)
	}
	object := func(n ast.Node, r *archRule, pattern *regexp.Regexp, obj types.Object, verb string) {
		if pattern == nil || obj == nil {
			return
		}
		if s := g.objName(obj); s != "" && s != r.allow && pattern.MatchString(s) {
			report(n, r, verb+" "+s)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		for _, r := range covering {
			switch n := n.(type) {
			case *ast.Ident:
				object(n, r, r.uses, info.Uses[n], "uses")
				object(n, r, r.defs, info.Defs[n], "declares")
			case *ast.GoStmt:
				if r.goStmt {
					report(n, r, "go statement")
				}
			}
			if e, ok := n.(ast.Expr); ok && r.types != nil {
				if tv, ok := info.Types[e]; ok && tv.Type != nil && !tv.IsBuiltin() {
					if s := types.TypeString(tv.Type, nil); r.types.MatchString(s) {
						report(n, r, "expression of type "+s)
					}
				}
			}
			if r.node != nil && n != nil && r.node(n, info) {
				report(n, r, "the shape the row forbids")
			}
		}
		return true
	})
}

// declare records the package-level declarations d makes and the roots it
// holds.
func (g *reachGraph) declare(p *listedPackage, info *types.Info, d ast.Decl, aux bool) {
	add := func(id *ast.Ident, name string, node ast.Node) *reachDecl {
		rd := &reachDecl{name: p.ImportPath + "." + name, pos: g.fset.Position(id.Pos()), info: info, node: node, aux: aux}
		rd.pos.Filename = g.rel(rd.pos.Filename)
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

// drain scans every declaration marked live and not yet scanned.
func (g *reachGraph) drain() {
	for len(g.work) > 0 {
		d := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		g.scan(d.info, d.node)
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
