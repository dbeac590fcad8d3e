// Package ctxflow enforces context discipline on request paths: work
// started on behalf of a request must be cancelable from that request.
// It flags, inside the serving and execution packages:
//
//   - context.Background() / context.TODO() — a fresh root context
//     detaches the work from request cancellation and server shutdown
//     (command mains and tests are out of scope; deliberately detached
//     work — async job runners, shared batch dispatch — carries a
//     //lint:allow ctxflow marker with its justification);
//   - goroutines launched from a function literal that references no
//     context, channel, or WaitGroup — the fire-and-forget shape that
//     leaks goroutines when the request goes away (the SSE drain path's
//     historical bug class).
//
// Concurrency contract: stateless; see package analysis.
package ctxflow

import (
	"go/ast"
	"go/types"

	"aryn/internal/analysis"
)

// Analyzer flags uncancelable contexts and unsupervised goroutines in
// request paths.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flag context.Background()/TODO() and unsupervised goroutines in request paths\n\n" +
		"Request-path work must descend from the request context (or the server lifecycle), so cancellation " +
		"and shutdown reach it; goroutines must be joined by a context, channel, or WaitGroup.",
	Run: run,
}

// scope is the set of request-path package suffixes the invariant
// covers: the HTTP serving layer and everything a request executes
// through.
var scope = []string{
	"internal/server",
	"internal/docset",
	"internal/luna",
	"internal/llm",
	"internal/core",
	"internal/index",
}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.PathHasSuffix(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	for _, f := range pass.SrcFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				pkg, recv, name := analysis.FuncID(analysis.Callee(pass.TypesInfo, n))
				if pkg == "context" && recv == "" && (name == "Background" || name == "TODO") {
					pass.Reportf(n.Pos(), "context.%s on a request path detaches work from cancellation: derive from the request or server context", name)
				}
			case *ast.GoStmt:
				checkGo(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkGo flags `go func(){...}()` launches with no supervision signal:
// no context to observe, no channel to communicate over, no WaitGroup to
// join. Named-function launches are not analyzed (their bodies may live
// elsewhere); the fire-and-forget literal is the leak shape this guards.
func checkGo(pass *analysis.Pass, g *ast.GoStmt) {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	for _, arg := range g.Call.Args {
		if supervisionType(pass.TypesInfo.TypeOf(arg)) {
			return
		}
	}
	supervised := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if supervised {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && supervisionType(obj.Type()) {
				supervised = true
			}
		}
		return true
	})
	if !supervised {
		pass.Reportf(g.Pos(), "goroutine has no context, channel, or WaitGroup: it cannot be canceled or joined and will leak")
	}
}

// supervisionType reports types that tie a goroutine to a lifecycle: a
// context, any channel, a WaitGroup, or a time.Ticker/Timer (whose Stop
// is driven by an owner).
func supervisionType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if analysis.IsNamedType(t, "context", "Context") {
		return true
	}
	if analysis.IsNamedType(t, "sync", "WaitGroup") {
		return true
	}
	return false
}
