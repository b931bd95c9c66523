package pj2k

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedSurface is the dead-export gate (DESIGN.md, "Exported
// surface"). An exported top-level name or method of an internal/ package
// earns its place by a reference from another package's non-test code. A name
// only the bench/ module calls lives in its package's benchpins.go, which no
// other non-test code may call and every name of which bench/ must call.
// Anything else is unexported or deleted. The census parses the tree with
// go/parser alone, so it needs no build and no type checker. Methods are
// matched by name, which can only miss a dead method, never flag a live one.

// stdlibMethods satisfy a standard-library interface: the call goes through
// the interface, so no selector in the module names them.
var stdlibMethods = map[string]string{
	"Error":     "error",
	"Unwrap":    "errors.Unwrap",
	"ServeHTTP": "http.Handler",
	"String":    "fmt.Stringer",
	"ReadAt":    "io.ReaderAt",
	"Write":     "io.Writer",
}

// exemptPackages are left out of the census.
var exemptPackages = map[string]string{
	"pj2k/internal/faultinject": "test-only fault injection: only _test.go files import it",
}

type goFile struct {
	pkg, path string // import path; path relative to the module root
	test      bool
	f         *ast.File
}

// parseTree parses every Go file under the module root, bench/ included.
func parseTree(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		files = append(files, goFile{pkg: path.Join("pj2k", path.Dir(p)), path: p, test: strings.HasSuffix(p, "_test.go"), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func isPin(file string) bool { return path.Base(file) == "benchpins.go" }

// decl is one exported top-level name (recv "") or method of an exported type.
type decl struct{ pkg, recv, name, file string }

func (d decl) String() string {
	if d.recv != "" {
		return d.pkg + "." + d.recv + "." + d.name + " (" + d.file + ")"
	}
	return d.pkg + "." + d.name + " (" + d.file + ")"
}

// refs is what one file references: package-qualified names as
// "importpath.Name", other selector names (methods and fields), and bare
// identifiers (uses inside the declaring package).
type refs struct{ qualified, selectors, idents map[string]bool }

func importNames(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, im := range f.Imports {
		p := strings.Trim(im.Path.Value, `"`)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		m[name] = p
	}
	return m
}

func refsOf(f *ast.File) refs {
	r := refs{map[string]bool{}, map[string]bool{}, map[string]bool{}}
	imports := importNames(f)
	skip := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				r.qualified[imports[x.Name]+"."+n.Sel.Name] = true
				return false
			}
			r.selectors[n.Sel.Name] = true
		case *ast.KeyValueExpr:
			if k, ok := n.Key.(*ast.Ident); ok {
				skip[k] = true // a composite-literal field name
			}
		case *ast.Ident:
			if !skip[n] {
				r.idents[n.Name] = true
			}
		}
		return true
	})
	return r
}

// typeNames records, as "importpath.Name", every name the node mentions.
func typeNames(n ast.Node, pkg string, imports map[string]string, into map[string]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				into[imports[x.Name]+"."+n.Sel.Name] = true
			}
			return false
		case *ast.Ident:
			into[pkg+"."+n.Name] = true
		}
		return true
	})
}

func recvName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

type census struct {
	decls   []decl
	inSig   map[string]bool // "importpath.Name" named by an exported signature or exported field
	members map[string]bool // method and field names declared outside the pin files
	code    map[string]refs // the module's non-test files, by path
	bench   []refs          // every file of the bench/ module
}

func takeCensus(files []goFile) census {
	c := census{inSig: map[string]bool{}, members: map[string]bool{}, code: map[string]refs{}}
	for _, gf := range files {
		if gf.pkg == "pj2k/bench" || strings.HasPrefix(gf.pkg, "pj2k/bench/") {
			c.bench = append(c.bench, refsOf(gf.f))
			continue
		}
		if gf.test {
			continue
		}
		c.code[gf.path] = refsOf(gf.f)
		if !isPin(gf.path) {
			ast.Inspect(gf.f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						c.members[n.Name.Name] = true
					}
				case *ast.Field:
					for _, id := range n.Names {
						c.members[id.Name] = true
					}
				}
				return true
			})
		}
		if !strings.HasPrefix(gf.pkg, "pj2k/internal/") {
			continue
		}
		imports := importNames(gf.f)
		add := func(recv, name string, sig ast.Node) {
			c.decls = append(c.decls, decl{gf.pkg, recv, name, gf.path})
			typeNames(sig, gf.pkg, imports, c.inSig)
		}
		for _, d := range gf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported():
				case d.Recv == nil:
					add("", d.Name.Name, d.Type)
				case ast.IsExported(recvName(d)):
					add(recvName(d), d.Name.Name, d.Type)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add("", s.Name.Name, exportedParts(s.Type))
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add("", n.Name, s.Type)
							}
						}
					}
				}
			}
		}
	}
	return c
}

// exportedParts is what of a type declaration an importer can name: the
// exported and embedded fields of a struct, or the whole type.
func exportedParts(e ast.Expr) ast.Node {
	st, ok := e.(*ast.StructType)
	if !ok {
		return e
	}
	var parts []ast.Expr
	for _, f := range st.Fields.List {
		exported := len(f.Names) == 0
		for _, n := range f.Names {
			exported = exported || n.IsExported()
		}
		if exported {
			parts = append(parts, f.Type)
		}
	}
	return &ast.CompositeLit{Elts: parts}
}

// users lists the non-test files outside the pin files that reference d:
// other packages' files, plus d's own package's with own set.
func (c census) users(d decl, own bool) []string {
	var by []string
	for file, r := range c.code {
		inPkg := path.Join("pj2k", path.Dir(file)) == d.pkg
		if isPin(file) || inPkg && !own {
			continue
		}
		switch {
		case d.recv != "" && r.selectors[d.name],
			d.recv == "" && r.qualified[d.pkg+"."+d.name],
			d.recv == "" && inPkg && r.idents[d.name]:
			by = append(by, file)
		}
	}
	sort.Strings(by)
	return by
}

func (c census) benchUses(d decl) bool {
	for _, r := range c.bench {
		if d.recv != "" && r.selectors[d.name] || d.recv == "" && r.qualified[d.pkg+"."+d.name] {
			return true
		}
	}
	return false
}

func TestExportedSurface(t *testing.T) {
	c := takeCensus(parseTree(t))
	var dead, benchOnly, pinCalled, stalePin []string
	top, pins := 0, 0
	for _, d := range c.decls {
		if exemptPackages[d.pkg] != "" {
			continue
		}
		if isPin(d.file) {
			pins++
			// A pinned method sharing its name with a live method or field
			// cannot be told apart by name; go build without the pin files
			// (CI) checks those.
			if d.recv == "" || !c.members[d.name] {
				if by := c.users(d, true); len(by) > 0 {
					pinCalled = append(pinCalled, d.String()+" is called by "+strings.Join(by, ", "))
				}
			}
			if !c.benchUses(d) {
				stalePin = append(stalePin, d.String())
			}
			continue
		}
		if d.recv == "" {
			top++
		}
		switch {
		case d.recv != "" && stdlibMethods[d.name] != "":
		case c.benchUses(d) && len(c.users(d, true)) == 0:
			benchOnly = append(benchOnly, d.String())
		case len(c.users(d, false)) > 0:
		case d.recv == "" && c.inSig[d.pkg+"."+d.name]:
		case c.benchUses(d):
			benchOnly = append(benchOnly, d.String())
		default:
			dead = append(dead, d.String())
		}
	}
	t.Logf("%d exported top-level names outside the pin files, %d pinned names and methods", top, pins)
	report := func(what string, names []string) {
		if len(names) > 0 {
			sort.Strings(names)
			t.Errorf("%s:\n\t%s", what, strings.Join(names, "\n\t"))
		}
	}
	report("exported, but no other package's non-test code references it: unexport or delete it", dead)
	report("only bench/ calls it: move it into its package's benchpins.go", benchOnly)
	report("a benchpins.go name is called by non-test code outside the pin files", pinCalled)
	report("a benchpins.go name bench/ does not call: delete it", stalePin)
}
