// Command usedexports lists the names of a Go module that only tests use,
// and holds that list to an allowlist.
//
// It type-checks the non-test files of every package of the module, and
// of each caller module named after it, with go/types; the standard
// library comes from the export data `go list -export` leaves in the build
// cache. A package-level object of the module, or a method of one of its
// package-level named types, exported or not, is used when an identifier
// in a non-test file resolves to it (types.Info.Uses); a program's main
// function is used by definition. Names
// are keyed by package, receiver type and name, so a word in a string
// literal or a same-named field or method of another type is never a use.
// A method is used too when its type satisfies an interface that non-test
// code uses — one the standard library declares, or one a non-test
// expression has as its type — and an error type's Unwrap, Is and As are
// used by package errors.
//
// The allowlist holds one name a line, `<import path>.<Name>` or `<import
// path>.<Type>.<Method>`, followed by its reason; '#' starts a comment
// line. A bare import path names a test-support package: its declarations
// are not audited, and its uses count as test uses.
//
// It prints every test-only name, one a line, and exits 1 when one is not
// on the allowlist or an allowlisted name has a non-test use or no longer
// exists.
//
// Usage:
//
//	go run ./scripts/usedexports allowlist module-dir [caller-module-dir ...]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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
)

// listedPackage is the part of `go list -json` output the audit reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// audit type-checks the module in dirs[0] and the caller modules in
// dirs[1:]. It returns the module's names that only tests use, and every
// name it declares. Packages in support are test support.
func audit(dirs []string, support map[string]bool) (testOnly []string, declared map[string]bool, err error) {
	var order []listedPackage
	exports := map[string]string{}
	audited := map[string]bool{}
	for i, dir := range dirs {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
		cmd.Dir, cmd.Stderr = dir, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				return nil, nil, err
			}
			switch _, seen := audited[p.ImportPath]; {
			case p.Standard:
				exports[p.ImportPath] = p.Export
			case !seen:
				audited[p.ImportPath] = i == 0
				order = append(order, p)
			}
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})}
	used := map[string]bool{}
	ifaces := map[*types.Interface]bool{}
	var named []*types.Named
	// go list -deps prints a package after its dependencies, so every
	// module import is checked before its importers.
	for _, p := range order {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, err
		}
		checked[p.ImportPath] = pkg
		if support[p.ImportPath] {
			continue
		}
		for _, obj := range info.Uses {
			used[key(obj)] = true
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
		if audited[p.ImportPath] {
			named = append(named, namedTypes(pkg)...)
		}
	}
	// Every standard-library interface counts as used: the library is
	// non-test code.
	for path := range exports {
		pkg, err := std.Import(path)
		if err != nil {
			return nil, nil, err
		}
		for _, n := range namedTypes(pkg) {
			if it, ok := n.Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
	}
	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, n := range named {
		ptr := types.NewPointer(n)
		if types.Implements(ptr, errorType) {
			// errors.Is, As and Unwrap call these through interfaces
			// declared inside their bodies, which export data lacks.
			for _, name := range []string{"Unwrap", "Is", "As"} {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, nil, name)
				used[key(obj)] = true
			}
		}
		for it := range ifaces {
			if it.NumMethods() == 0 || n.TypeParams().Len() > 0 || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				used[key(obj)] = true
			}
		}
	}

	declared = map[string]bool{}
	for path, pkg := range checked {
		if !audited[path] || support[path] {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if pkg.Name() != "main" || name != "main" {
				declared[key(pkg.Scope().Lookup(name))] = true
			}
		}
		for _, n := range namedTypes(pkg) {
			for i := 0; i < n.NumMethods(); i++ {
				declared[key(n.Method(i))] = true
			}
		}
	}
	for k := range declared {
		if !used[k] {
			testOnly = append(testOnly, k)
		}
	}
	sort.Strings(testOnly)
	return testOnly, declared, nil
}

// namedTypes returns the defined types declared at package level in pkg.
func namedTypes(pkg *types.Package) []*types.Named {
	var out []*types.Named
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok {
				out = append(out, n)
			}
		}
	}
	return out
}

// key names obj `<import path>.<Name>`, or `<import path>.<Type>.<Method>`
// for a method of a defined type. Interface methods, fields, locals and
// objects of no package are keyed by name alone and so never match a
// declaration.
func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, ok := t.(*types.Named)
			if !ok || types.IsInterface(n) {
				return f.Name()
			}
			return f.Pkg().Path() + "." + n.Origin().Obj().Name() + "." + f.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// readAllowlist returns the allowlist's names and its test-support
// packages.
func readAllowlist(path string) (names, support map[string]bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	names, support = map[string]bool{}, map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case len(fields) == 1:
			return nil, nil, fmt.Errorf("%s:%d: %s has no reason", path, line, fields[0])
		case strings.Contains(fields[0][strings.LastIndex(fields[0], "/")+1:], "."):
			names[fields[0]] = true
		default:
			support[fields[0]] = true
		}
	}
	return names, support, sc.Err()
}

// complaints returns one line for each test-only name off the allowlist
// and each allowlisted name that has a non-test use or no longer exists.
func complaints(testOnly []string, declared, allowed map[string]bool) []string {
	var out []string
	listed := map[string]bool{}
	for _, k := range testOnly {
		listed[k] = true
		if !allowed[k] {
			out = append(out, k+": only tests use it; delete it, give it a caller, or allowlist it with a reason")
		}
	}
	for k := range allowed {
		switch {
		case !declared[k]:
			out = append(out, k+": allowlisted but no longer exists")
		case !listed[k]:
			out = append(out, k+": allowlisted but has a non-test use")
		}
	}
	sort.Strings(out)
	return out
}

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: usedexports allowlist module-dir [caller-module-dir ...]")
		os.Exit(2)
	}
	allowed, support, err := readAllowlist(os.Args[1])
	var testOnly []string
	var declared map[string]bool
	if err == nil {
		testOnly, declared, err = audit(os.Args[2:], support)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "usedexports:", err)
		os.Exit(2)
	}
	for _, k := range testOnly {
		fmt.Println(k)
	}
	bad := complaints(testOnly, declared, allowed)
	for _, c := range bad {
		fmt.Fprintln(os.Stderr, c)
	}
	if len(bad) > 0 {
		os.Exit(1)
	}
}
