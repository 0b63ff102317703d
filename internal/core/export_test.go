package core

// LiteralTypeCount returns how many types the process-wide table of types
// built from primitives only holds.
func LiteralTypeCount() int {
	n := 0
	literalTypes.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}
