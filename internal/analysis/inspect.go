package analysis

import "go/ast"

// WithStack walks every file of the pass, calling f with each node and
// the stack of its ancestors (outermost first, not including the node
// itself). Returning false prunes the subtree.
func (p *Pass) WithStack(f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := f(n, stack)
			if descend {
				stack = append(stack, n)
				return true
			}
			return false
		})
	}
}

// enclosingFuncDecl returns the innermost *named* function declaration
// on the stack, or nil.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}
