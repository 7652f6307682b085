package protocol

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stubImporter stands in for every import of the package under check: the
// ownership rule concerns only the package's own message type, so imported
// names may stay unresolved.
type stubImporter struct{}

func (stubImporter) Import(p string) (*types.Package, error) {
	pkg := types.NewPackage(p, path.Base(p))
	pkg.MarkComplete()
	return pkg, nil
}

// TestNoMessageOutlivesItsHandler checks the message ownership rule on the
// package source, branches no test executes included: a *pmsg is recycled
// by its receiver as soon as handle returns, so nothing may keep the
// pointer. It fails when a function literal (a deferred downgrade action, a
// helper closure) refers to a *pmsg parameter or local of an enclosing
// function, or when a struct field, slice, array, map, channel, function
// result or package variable holds a *pmsg — except the free lists
// themselves (Proc.free) and the shared, never-released wakeMsg.
func TestNoMessageOutlivesItsHandler(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: stubImporter{}, Error: func(error) {}}
	pkg, _ := conf.Check("repro/internal/protocol", fset, files, info)
	msgPtr := types.NewPointer(pkg.Scope().Lookup("pmsg").Type())
	isMsg := func(t types.Type) bool { return types.Identical(t, msgPtr) }
	var holds func(t types.Type) bool // t is, or contains, a *pmsg
	holds = func(t types.Type) bool {
		switch u := t.(type) {
		case *types.Pointer:
			return isMsg(u)
		case *types.Slice:
			return holds(u.Elem())
		case *types.Array:
			return holds(u.Elem())
		case *types.Map:
			return holds(u.Key()) || holds(u.Elem())
		case *types.Chan:
			return holds(u.Elem())
		case *types.Named:
			if _, ok := u.Underlying().(*types.Struct); !ok {
				return holds(u.Underlying())
			}
		}
		return false
	}
	var freeList types.Object
	if proc, ok := pkg.Scope().Lookup("Proc").Type().Underlying().(*types.Struct); ok {
		for i := 0; i < proc.NumFields(); i++ {
			if proc.Field(i).Name() == "free" {
				freeList = proc.Field(i)
			}
		}
	}
	if freeList == nil || !holds(freeList.Type()) {
		t.Fatal("Proc.free, the free list of messages, not found")
	}

	bad := map[string]bool{} // a nested literal meets the same use twice
	report := func(pos token.Pos, format string, args ...any) {
		bad[fset.Position(pos).String()+": "+fmt.Sprintf(format, args...)] = true
	}
	for id, obj := range info.Defs {
		switch obj := obj.(type) {
		case *types.Var:
			switch {
			case obj == freeList || obj.Name() == "wakeMsg" && obj.Parent() == pkg.Scope():
			case obj.IsField() && holds(obj.Type()):
				report(id.Pos(), "field %s holds a *pmsg", obj.Name())
			case obj.Parent() == pkg.Scope() && holds(obj.Type()):
				report(id.Pos(), "package variable %s holds a *pmsg", obj.Name())
			case holds(obj.Type()) && !isMsg(obj.Type()):
				report(id.Pos(), "%s is a container of *pmsg", obj.Name())
			}
		case *types.Func:
			res := obj.Type().(*types.Signature).Results()
			for i := 0; i < res.Len(); i++ {
				if holds(res.At(i).Type()) && !isMsg(res.At(i).Type()) {
					report(id.Pos(), "%s returns a container of *pmsg", obj.Name())
				}
			}
		case *types.TypeName:
			if holds(obj.Type()) {
				report(id.Pos(), "type %s holds a *pmsg", obj.Name())
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := info.Uses[id].(*types.Var)
				if ok && isMsg(v.Type()) && v.Parent() != pkg.Scope() &&
					(v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
					report(id.Pos(), "function literal captures message %s", id.Name)
				}
				return true
			})
			return true
		})
	}
	lines := make([]string, 0, len(bad))
	for b := range bad {
		lines = append(lines, b)
	}
	sort.Strings(lines)
	for _, b := range lines {
		t.Error(b)
	}
}

// TestRecycledMessageIsRejected pins the poison on a released message:
// handling it again is a protocol panic, never a silent dispatch of
// whatever the message held before.
func TestRecycledMessageIsRejected(t *testing.T) {
	s := testSystem(1, 1)
	s.Run(func(p *Proc) {
		m := p.msg(pmsg{kind: mSharingUpdate, baseLine: 0, seq: 1})
		p.release(m)
		defer func() {
			want := "protocol: proc 0 handled a recycled message"
			if r := recover(); r != want {
				t.Errorf("handling a released message: recovered %v, want %q", r, want)
			}
		}()
		p.handle(m)
	})
}
