package asm

import (
	"fmt"
	"strconv"

	"repro/internal/core"
)

// ParseModule parses assembly text into a Module. The module is not
// verified; run core.Verify if the input is untrusted. Malformed input is
// always reported as an error carrying the offending line — even when it
// trips an internal panic in an IR constructor, it never escapes as a Go
// panic.
func ParseModule(name, src string) (m *core.Module, err error) {
	p := &parser{lx: newLexer(src), m: core.NewModule(name)}
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("line %d: invalid input: %v", p.tok.line, r)
		}
	}()
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.parseModule(); err != nil {
		return nil, err
	}
	return p.m, nil
}

type parser struct {
	lx  *lexer
	tok token
	m   *core.Module

	// Per-function state.
	fn     *core.Function
	locals map[string]core.Value
	blocks map[string]*core.BasicBlock
	fwd    map[string]*core.Placeholder // unresolved local value refs

	// Module-level forward references (globals/functions used before
	// their definition), resolved at end of parse.
	modFwd map[string]*core.Placeholder
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", p.tok.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return p.errf("expected %q, got %q", s, p.tok.text)
	}
	return p.advance()
}

func (p *parser) atPunct(s string) bool { return p.tok.kind == tokPunct && p.tok.text == s }

func (p *parser) atWord(s string) bool { return p.tok.kind == tokWord && p.tok.text == s }

func (p *parser) eatWord(s string) (bool, error) {
	if p.atWord(s) {
		return true, p.advance()
	}
	return false, nil
}

// ---------------------------------------------------------------------------
// Module structure

func (p *parser) parseModule() error {
	p.modFwd = map[string]*core.Placeholder{}
	for p.tok.kind != tokEOF {
		if err := p.parseTopLevel(); err != nil {
			return err
		}
	}
	return p.resolveModuleForwardRefs()
}

func (p *parser) parseTopLevel() error {
	switch {
	case p.tok.kind == tokLocal:
		// "%name = type ..." or "%name = [internal|external] global/constant ..."
		// unless it is a named return type of a function definition.
		name := p.tok.text
		save := *p.lx
		saveTok := p.tok
		if err := p.advance(); err != nil {
			return err
		}
		if p.atPunct("=") {
			if err := p.advance(); err != nil {
				return err
			}
			return p.parseNamedEntity(name)
		}
		// Rewind: it was a type beginning a function definition.
		*p.lx = save
		p.tok = saveTok
		return p.parseFunctionDef(core.ExternalLinkage)

	case p.atWord("declare"):
		if err := p.advance(); err != nil {
			return err
		}
		return p.parseFunctionDecl()

	case p.atWord("internal"):
		if err := p.advance(); err != nil {
			return err
		}
		return p.parseFunctionDef(core.InternalLinkage)

	case p.atWord("target"):
		// "target ..." lines are accepted and ignored.
		line := p.tok.line
		for p.tok.kind != tokEOF && p.tok.line == line {
			if err := p.advance(); err != nil {
				return err
			}
		}
		return nil

	default:
		return p.parseFunctionDef(core.ExternalLinkage)
	}
}

// parseNamedEntity handles everything after "%name = ".
func (p *parser) parseNamedEntity(name string) error {
	if ok, err := p.eatWord("type"); err != nil {
		return err
	} else if ok {
		return p.parseTypeDecl(name)
	}

	linkage := core.ExternalLinkage
	isDecl := false
	if ok, err := p.eatWord("internal"); err != nil {
		return err
	} else if ok {
		linkage = core.InternalLinkage
	}
	if ok, err := p.eatWord("external"); err != nil {
		return err
	} else if ok {
		isDecl = true
	}

	isConst := false
	switch {
	case p.atWord("global"):
	case p.atWord("constant"):
		isConst = true
	default:
		return p.errf("expected 'global' or 'constant' after %%%s =", name)
	}
	if err := p.advance(); err != nil {
		return err
	}
	vt, err := p.parseType()
	if err != nil {
		return err
	}
	var init core.Constant
	if !isDecl {
		init, err = p.parseConstantOperand(vt)
		if err != nil {
			return err
		}
	}
	g := core.NewGlobal(name, vt, init)
	g.IsConst = isConst
	g.Linkage = linkage
	if old := p.m.Global(name); old != nil {
		return p.errf("redefinition of global %%%s", name)
	}
	p.m.AddGlobal(g)
	return nil
}

func (p *parser) parseTypeDecl(name string) error {
	if ok, err := p.eatWord("opaque"); err != nil {
		return err
	} else if ok {
		if _, exists := p.m.NamedType(name); !exists {
			p.m.AddTypeName(name, &core.OpaqueType{Name: name})
		}
		return nil
	}
	body, err := p.parseType()
	if err != nil {
		return err
	}
	defer p.m.MoveTypeNameToEnd(name)
	existing, had := p.m.NamedType(name)
	bs, isStruct := body.(*core.StructType)
	if !had {
		if isStruct && bs.Name == "" {
			body = &core.StructType{Name: name, Fields: append([]core.Type{}, bs.Fields...)}
		}
		p.m.AddTypeName(name, body)
		return nil
	}
	// A forward-declared struct placeholder: fill in its fields so
	// recursive types knot correctly. Only here can a struct come to
	// contain itself: a new one is referred to by nothing yet.
	if ph, ok := existing.(*core.StructType); ok && ph.Fields == nil && isStruct {
		ph.Fields = append([]core.Type{}, bs.Fields...)
		if err := core.ValidateTypeGraph(ph); err != nil {
			return p.errf("%v", err)
		}
		return nil
	}
	if existing == body {
		return nil
	}
	return p.errf("redefinition of type %%%s", name)
}

func (p *parser) parseFunctionDecl() error {
	ret, err := p.parseType()
	if err != nil {
		return err
	}
	if p.tok.kind != tokLocal {
		return p.errf("expected function name after declare")
	}
	name := p.tok.text
	if err := p.advance(); err != nil {
		return err
	}
	sig, _, err := p.parseParamList(ret, false)
	if err != nil {
		return err
	}
	if p.m.Func(name) == nil {
		p.m.AddFunc(core.NewFunction(name, sig))
	}
	return nil
}

func (p *parser) parseFunctionDef(linkage core.Linkage) error {
	ret, err := p.parseType()
	if err != nil {
		return err
	}
	if p.tok.kind != tokLocal {
		return p.errf("expected function name in definition")
	}
	name := p.tok.text
	if err := p.advance(); err != nil {
		return err
	}
	sig, argNames, err := p.parseParamList(ret, true)
	if err != nil {
		return err
	}
	f := p.m.Func(name)
	if f != nil {
		if !f.IsDeclaration() {
			return p.errf("redefinition of function %%%s", name)
		}
		if f.Sig != sig {
			return p.errf("definition of %%%s does not match earlier declaration", name)
		}
	} else {
		f = core.NewFunction(name, sig)
		p.m.AddFunc(f)
	}
	f.Linkage = linkage
	for i, an := range argNames {
		f.Args[i].SetName(an)
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	if err := p.parseFunctionBody(f); err != nil {
		return err
	}
	return p.expectPunct("}")
}

// parseParamList parses "(type [%name], ..., [...])"; named controls
// whether argument names are expected/allowed.
func (p *parser) parseParamList(ret core.Type, named bool) (*core.FunctionType, []string, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, nil, err
	}
	var params []core.Type
	var names []string
	variadic := false
	for !p.atPunct(")") {
		if len(params) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, nil, err
			}
		}
		if p.tok.kind == tokEllipsis {
			variadic = true
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
			break
		}
		pt, err := p.parseType()
		if err != nil {
			return nil, nil, err
		}
		params = append(params, pt)
		name := ""
		if named && p.tok.kind == tokLocal {
			name = p.tok.text
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
		}
		names = append(names, name)
	}
	return core.FunctionTypeOf(ret, params, variadic), names, p.expectPunct(")")
}

// ---------------------------------------------------------------------------
// Types

// parseType parses a full type: base type plus pointer/function suffixes.
func (p *parser) parseType() (core.Type, error) {
	t, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atPunct("*"):
			t = core.NewPointer(t)
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.atPunct("("):
			ft, _, err := p.parseParamList(t, false)
			if err != nil {
				return nil, err
			}
			t = ft
		default:
			return t, nil
		}
	}
}

var primTypes = map[string]core.Type{
	"void": core.VoidType, "bool": core.BoolType,
	"sbyte": core.SByteType, "ubyte": core.UByteType,
	"short": core.ShortType, "ushort": core.UShortType,
	"int": core.IntType, "uint": core.UIntType,
	"long": core.LongType, "ulong": core.ULongType,
	"float": core.FloatType, "double": core.DoubleType,
	"label": core.LabelType,
}

func (p *parser) parseBaseType() (core.Type, error) {
	switch {
	case p.tok.kind == tokWord:
		if t, ok := primTypes[p.tok.text]; ok {
			return t, p.advance()
		}
		if p.tok.text == "opaque" {
			return &core.OpaqueType{}, p.advance()
		}
		return nil, p.errf("unknown type %q", p.tok.text)

	case p.tok.kind == tokLocal:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if t, ok := p.m.NamedType(name); ok {
			return t, nil
		}
		// Forward type reference: assume a struct and patch later.
		ph := &core.StructType{Name: name}
		p.m.AddTypeName(name, ph)
		return ph, nil

	case p.atPunct("["):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokInt {
			return nil, p.errf("expected array length")
		}
		n, err := strconv.Atoi(p.tok.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad array length %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.atWord("x") {
			return nil, p.errf("expected 'x' in array type")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		return core.NewArray(elem, n), nil

	case p.atPunct("{"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		var fields []core.Type
		for !p.atPunct("}") {
			if len(fields) > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			ft, err := p.parseType()
			if err != nil {
				return nil, err
			}
			fields = append(fields, ft)
		}
		return core.NewStruct(fields...), p.expectPunct("}")
	}
	return nil, p.errf("expected type, got %q", p.tok.text)
}

// looksLikeType reports whether the current token can begin a type.
func (p *parser) looksLikeType() bool {
	switch {
	case p.tok.kind == tokWord:
		_, ok := primTypes[p.tok.text]
		return ok || p.tok.text == "opaque"
	case p.tok.kind == tokLocal:
		_, ok := p.m.NamedType(p.tok.text)
		return ok
	case p.atPunct("[") || p.atPunct("{"):
		return true
	}
	return false
}
