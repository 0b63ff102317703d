package core

import "fmt"

// ValidateTypeGraph checks that a type constructed by a parser or decoder
// is well-founded: no type contains itself by value (struct fields and
// array elements form the containment relation), which would give it
// infinite size and hang SizeOf. Reference cycles need no check: a literal
// type is built from components that exist before it, so every cycle
// passes through a named struct, whose printing stops at its name.
func ValidateTypeGraph(t Type) error {
	return checkContainment(t, map[Type]int{})
}

// checkContainment rejects by-value self-containment. state: 1 = on the
// current path, 2 = proven finite.
func checkContainment(t Type, state map[Type]int) error {
	switch tt := t.(type) {
	case *StructType:
		switch state[t] {
		case 1:
			return fmt.Errorf("type %s contains itself by value (infinite size)", tt)
		case 2:
			return nil
		}
		state[t] = 1
		for _, f := range tt.Fields {
			if err := checkContainment(f, state); err != nil {
				return err
			}
		}
		state[t] = 2
	case *ArrayType:
		return checkContainment(tt.Elem, state)
	}
	// Pointers and function types refer, they do not contain.
	return nil
}
