package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// errkind holds the simulator's error taxonomy to one owner per kind. Every
// typed failure — *StallError, *LostPageError, *JobTimeoutError and whatever
// a future change adds — names its own schema-v1 wire kind through an
// ErrKind() string method; exp.ErrKind reads that method and exp.RetryableKind
// turns the kind into the retry decision. An error type without the method
// compiles fine and degrades silently: the new failure reports the catch-all
// "failed" kind and is retried as host weather even if it is a deterministic
// modeled outcome.
//
// The analyzer checks each package on its own: every exported struct type
// named *Error that implements error must also have the method ErrKind()
// string (on the value or the pointer receiver). Alias re-exports like
// svmsim.StallError are the same type and are not declarations of their own.

// errkindIface is interface{ ErrKind() string }.
var errkindIface = types.NewInterfaceType([]*types.Func{
	types.NewFunc(token.NoPos, nil, "ErrKind", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)),
}, nil).Complete()

func errkindRun(pass *Pass) {
	pkg := pass.Pkg
	errIface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Assign.IsValid() || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Error") {
					continue
				}
				obj, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
				if obj == nil {
					continue
				}
				if _, isStruct := obj.Type().Underlying().(*types.Struct); !isStruct {
					continue
				}
				ptr := types.NewPointer(obj.Type())
				if !types.Implements(ptr, errIface) || types.Implements(ptr, errkindIface) {
					continue
				}
				pass.Report(ts.Name.Pos(), "error type %s.%s has no ErrKind() string method; every typed failure names its own wire kind (or justify with //svmlint:ignore errkind <reason>)", pkg.Name, ts.Name.Name)
			}
		}
	}
}
