// Command reach lists the functions that no program of the repository
// links. Run it from the repository root:
//
//	go run ./internal/tools/reach
//
// It builds every main package of the module, bench/cmd/cogbench and a
// generated program that takes the value of every exported function and
// method of the root package (the public library API), all with
// inlining off so that an inlined function still leaves a symbol. It
// reads their text symbols with go tool nm and compares them with the
// functions declared in the module's non-test, non-main files that
// build for the host.
//
// Each declared function in no symbol table is printed with its
// position unless keep.txt, next to this file, lists it: one
// "symbol  # reason" line per function kept for a test. The command
// exits 1 on any unlisted unreached function and on any stale keep
// entry, one that is reached or no longer declared.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const (
	module   = "repro"
	keepFile = "internal/tools/reach/keep.txt"
)

func main() {
	bad, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
	if bad > 0 {
		os.Exit(1)
	}
}

func run() (int, error) {
	root, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	decls, err := declared(root)
	if err != nil {
		return 0, err
	}
	keep, err := readKeep(filepath.Join(root, keepFile))
	if err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp("", "reach-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	bins, err := buildRoots(root, tmp, decls)
	if err != nil {
		return 0, err
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		if err := symbols(bin, linked); err != nil {
			return 0, err
		}
	}

	var bad []string
	for sym, pos := range decls {
		if !linked[sym] && !keep[sym] {
			bad = append(bad, pos+": "+sym)
		}
	}
	for sym := range keep {
		if _, ok := decls[sym]; !ok {
			bad = append(bad, keepFile+": "+sym+" is no longer declared")
		} else if linked[sym] {
			bad = append(bad, keepFile+": "+sym+" is reached")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		fmt.Println(b)
	}
	fmt.Printf("reach: %d programs, %d functions declared, %d kept, %d problems\n",
		len(bins), len(decls), len(keep), len(bad))
	return len(bad), nil
}

// declared maps the nm symbol of every function and method declared in
// the module's non-test, non-main Go files for the host to its
// position. Bodiless declarations are assembly and count like any
// other.
func declared(root string) (map[string]string, error) {
	fset := token.NewFileSet()
	decls := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "bench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil || f.Name.Name == "main" {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name != "init" && fd.Name.Name != "_" {
				decls[pkg+"."+funcName(fd)] = fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line)
			}
		}
		return nil
	})
	return decls, err
}

// funcName renders a declaration as go tool nm names it once cleaned:
// F, T.M or (*T).M.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	if star {
		return "(*" + t.(*ast.Ident).Name + ")." + fd.Name.Name
	}
	return t.(*ast.Ident).Name + "." + fd.Name.Name
}

// buildRoots links every program into dir and returns their paths.
func buildRoots(root, dir string, decls map[string]string) ([]string, error) {
	goBuild := []string{"build", "-gcflags=all=-l", "-o"}
	out, err := goCmd(root, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	if err != nil {
		return nil, err
	}
	mains := strings.Fields(out)
	if _, err := goCmd(root, append(append(goBuild, dir+"/"), mains...)...); err != nil {
		return nil, err
	}
	var bins []string
	for _, m := range mains {
		bins = append(bins, filepath.Join(dir, filepath.Base(m)))
	}
	cogbench := filepath.Join(dir, "cogbench.bin")
	if _, err := goCmd(filepath.Join(root, "bench"), append(goBuild, cogbench, "./cmd/cogbench")...); err != nil {
		return nil, err
	}

	// The API program: a module that requires this one and takes the
	// value of every exported function and method of the root package.
	var refs []string
	for sym := range decls {
		name, ok := strings.CutPrefix(sym, module+".")
		if !ok {
			continue
		}
		recv, fn, isMethod := strings.Cut(strings.TrimPrefix(name, "(*"), ".")
		recv = strings.TrimSuffix(recv, ")")
		if !isMethod {
			fn = name
		}
		if !ast.IsExported(fn) || (isMethod && !ast.IsExported(recv)) {
			continue
		}
		if strings.HasPrefix(name, "(*") {
			refs = append(refs, "(*api."+name[2:])
		} else {
			refs = append(refs, "api."+name)
		}
	}
	sort.Strings(refs)
	src := "package main\n\nimport api \"" + module + "\"\n\nvar sink = []any{\n\t" +
		strings.Join(refs, ",\n\t") + ",\n}\n\nfunc main() { println(len(sink)) }\n"
	mod := fmt.Sprintf("module reachapi\n\ngo 1.22\n\nrequire %s v0.0.0\n\nreplace %s => %s\n", module, module, root)
	api := filepath.Join(dir, "api")
	if err := os.MkdirAll(api, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(api, "go.mod"), []byte(mod), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(api, "main.go"), []byte(src), 0o644); err != nil {
		return nil, err
	}
	if _, err := goCmd(api, append(goBuild, "api.bin", ".")...); err != nil {
		return nil, err
	}
	return append(bins, cogbench, filepath.Join(api, "api.bin")), nil
}

// suffix matches what the compiler appends to a function's own symbol:
// closures, go and defer wrappers, method values and the ABI0 entry of
// an assembly function.
var suffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)\d+|-fm|\.abi0)+$`)

// shape matches a generic instantiation's type arguments.
var shape = regexp.MustCompile(`\[[^\[\]]*\]`)

// symbols adds the cleaned text symbols of bin to linked.
func symbols(bin string, linked map[string]bool) error {
	out, err := goCmd("", "tool", "nm", bin)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		sym := strings.Join(f[2:], " ")
		for prev := ""; prev != sym; {
			prev, sym = sym, shape.ReplaceAllString(sym, "")
		}
		linked[suffix.ReplaceAllString(sym, "")] = true
	}
	return sc.Err()
}

// readKeep parses keep.txt: "symbol  # reason" per line, blank lines
// and whole-line comments ignored. Every entry must give a reason.
func readKeep(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	keep := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, "#")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, sym)
		}
		keep[strings.TrimSpace(sym)] = true
	}
	return keep, nil
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out), nil
}
