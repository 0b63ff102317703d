package interp

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// registerStdBuiltins installs the standard external functions a C-style
// front-end runtime expects: printf/puts/putchar for output, abort/exit,
// and a few libc helpers (strlen, memset, memcpy, abs, rand).
func registerStdBuiltins(mc *Machine) {
	mc.RegisterBuiltin("printf", builtinPrintf)
	mc.RegisterBuiltin("puts", func(m *Machine, args []uint64) (uint64, error) {
		if len(args) < 1 {
			return 0, fmt.Errorf("puts: missing argument")
		}
		s, err := m.ReadCString(args[0])
		if err != nil {
			return 0, err
		}
		fmt.Fprintln(m.Out, s)
		return uint64(len(s) + 1), nil
	})
	mc.RegisterBuiltin("putchar", func(m *Machine, args []uint64) (uint64, error) {
		if len(args) < 1 {
			return 0, fmt.Errorf("putchar: missing argument")
		}
		fmt.Fprintf(m.Out, "%c", byte(args[0]))
		return args[0], nil
	})
	mc.RegisterBuiltin("abort", func(m *Machine, args []uint64) (uint64, error) {
		return 0, fmt.Errorf("interp: program called abort")
	})
	mc.RegisterBuiltin("__bounds_check_fail", func(m *Machine, args []uint64) (uint64, error) {
		e := &BoundsError{}
		if len(args) > 0 {
			e.Index = int64(args[0])
		}
		if len(args) > 1 {
			e.Limit = int64(args[1])
		}
		return 0, e
	})
	mc.RegisterBuiltin("exit", func(m *Machine, args []uint64) (uint64, error) {
		code := int64(0)
		if len(args) > 0 {
			code = int64(int32(args[0]))
		}
		return 0, &ExitError{Code: code}
	})
	mc.RegisterBuiltin("strlen", func(m *Machine, args []uint64) (uint64, error) {
		s, err := m.ReadCString(args[0])
		if err != nil {
			return 0, err
		}
		return uint64(len(s)), nil
	})
	mc.RegisterBuiltin("memset", func(m *Machine, args []uint64) (uint64, error) {
		dst, val, n := args[0], byte(args[1]), args[2]
		b, err := m.mem(dst, int(n))
		if err != nil {
			return 0, err
		}
		for i := range b {
			b[i] = val
		}
		return dst, nil
	})
	mc.RegisterBuiltin("memcpy", func(m *Machine, args []uint64) (uint64, error) {
		dst, src, n := args[0], args[1], args[2]
		db, err := m.mem(dst, int(n))
		if err != nil {
			return 0, err
		}
		sb, err := m.mem(src, int(n))
		if err != nil {
			return 0, err
		}
		// Resolving src may have grown the stack arena under db.
		db, _ = m.mem(dst, int(n))
		copy(db, sb)
		return dst, nil
	})
	mc.RegisterBuiltin("abs", func(m *Machine, args []uint64) (uint64, error) {
		v := int32(args[0])
		if v < 0 {
			v = -v
		}
		return uint64(uint32(v)), nil
	})
	// Deterministic linear congruential rand, so runs are reproducible.
	var seed uint64 = 0x2545F4914F6CDD1D
	mc.RegisterBuiltin("rand", func(m *Machine, args []uint64) (uint64, error) {
		seed = seed*6364136223846793005 + 1442695040888963407
		return (seed >> 33) & 0x7FFFFFFF, nil
	})
	mc.RegisterBuiltin("srand", func(m *Machine, args []uint64) (uint64, error) {
		if len(args) > 0 {
			seed = args[0] ^ 0x2545F4914F6CDD1D
		}
		return 0, nil
	})
}

// BoundsError reports a failed SAFECode-style bounds check.
type BoundsError struct{ Index, Limit int64 }

// Error describes the violation.
func (e *BoundsError) Error() string {
	return fmt.Sprintf("interp: array index %d out of bounds (limit %d)", e.Index, e.Limit)
}

// ExitError reports a program's explicit exit().
type ExitError struct{ Code int64 }

// Error describes the exit.
func (e *ExitError) Error() string { return fmt.Sprintf("interp: program exited with code %d", e.Code) }

// builtinPrintf implements the printf subset front-ends emit: %d %u %c %s
// %x %f %g %ld %lu %% with optional width. Arguments are raw bits; integer
// conversions assume the C front-end widened them appropriately.
func builtinPrintf(m *Machine, args []uint64) (uint64, error) {
	if len(args) < 1 {
		return 0, fmt.Errorf("printf: missing format")
	}
	format, err := m.ReadCString(args[0])
	if err != nil {
		return 0, err
	}
	var out strings.Builder
	argi := 1
	nextArg := func() uint64 {
		if argi < len(args) {
			v := args[argi]
			argi++
			return v
		}
		return 0
	}
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			out.WriteByte(c)
			i++
			continue
		}
		// Parse %[-][width][.prec][l]verb
		j := i + 1
		spec := "%"
		for j < len(format) && (format[j] == '-' || format[j] == '0' ||
			(format[j] >= '1' && format[j] <= '9') || format[j] == '.') {
			spec += string(format[j])
			j++
		}
		long := false
		for j < len(format) && format[j] == 'l' {
			long = true
			j++
		}
		if j >= len(format) {
			out.WriteString(spec)
			break
		}
		verb := format[j]
		switch verb {
		case '%':
			out.WriteByte('%')
		case 'd', 'i':
			v := nextArg()
			var sv int64
			if long {
				sv = int64(v)
			} else {
				sv = int64(int32(v))
			}
			fmt.Fprintf(&out, spec+"d", sv)
		case 'u':
			v := nextArg()
			if !long {
				v = uint64(uint32(v))
			}
			fmt.Fprintf(&out, spec+"d", v)
		case 'x':
			v := nextArg()
			if !long {
				v = uint64(uint32(v))
			}
			fmt.Fprintf(&out, spec+"x", v)
		case 'c':
			fmt.Fprintf(&out, spec+"c", rune(byte(nextArg())))
		case 's':
			s, err := m.ReadCString(nextArg())
			if err != nil {
				return 0, err
			}
			fmt.Fprintf(&out, spec+"s", s)
		case 'f', 'g', 'e':
			f := bitsToFloat(core.DoubleType, nextArg())
			fmt.Fprintf(&out, spec+string(verb), f)
		case 'p':
			fmt.Fprintf(&out, "0x%x", nextArg())
		default:
			out.WriteString(spec)
			out.WriteByte(verb)
		}
		i = j + 1
	}
	s := out.String()
	fmt.Fprint(m.Out, s)
	return uint64(len(s)), nil
}
