package probe

import (
	"fmt"
	"strconv"
	"strings"

	"k23/internal/canon"
)

// Grammar (canonical form is what Format prints; parse∘format is the
// identity on canonical programs, which FuzzProbeParse enforces):
//
//	program = probe { probe } .
//	probe   = attach [ "/" expr "/" ] "{" action { ";" action } "}" .
//	attach  = part ":" part [ ":" part ] .
//	part    = ident | "*" .
//	action  = func "(" [ field ] ")" [ "by" "(" field { "," field } ")" ] .
//	func    = "count" | "sum" | "min" | "max" | "hist" | "emit" .
//	expr    = and { "||" and } .
//	and     = cmp { "&&" cmp } .
//	cmp     = unary [ relop unary ] .
//	relop   = "==" | "!=" | "<" | "<=" | ">" | ">=" .
//	unary   = "!" unary | "-" number | primary .
//	primary = field | number | string | "(" expr ")" .
//
// Types are checked at parse time: relational operators take two
// numeric operands, == and != additionally accept two strings, the
// boolean connectives take booleans, and a predicate must be boolean.

type parser struct {
	toks []tok
	i    int
	src  string
}

// Parse parses and type-checks a probe program. Syscall names in
// attach points are resolved later, by Compile, which owns the naming
// tables; Parse validates everything else (providers, phases, event
// kinds, fields, action arity, predicate types).
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	prog := &Program{}
	for !p.at(tkEOF, "") {
		pr, err := p.probe()
		if err != nil {
			return nil, err
		}
		prog.Probes = append(prog.Probes, pr)
	}
	if len(prog.Probes) == 0 {
		return nil, fmt.Errorf("empty probe program")
	}
	return prog, nil
}

func (p *parser) cur() tok  { return p.toks[p.i] }
func (p *parser) next() tok { t := p.toks[p.i]; p.i++; return t }

func (p *parser) at(k tokKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) expect(k tokKind, text string) (tok, error) {
	t := p.cur()
	if !p.at(k, text) {
		want := text
		if want == "" {
			want = [...]string{"end of input", "identifier", "number", "string", "operator"}[k]
		}
		return t, fmt.Errorf("offset %d: expected %q, got %q", t.pos, want, t.text)
	}
	return p.next(), nil
}

func (p *parser) probe() (*Probe, error) {
	attach, err := p.attach()
	if err != nil {
		return nil, err
	}
	pr := &Probe{Attach: attach}
	if p.at(tkOp, "/") {
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if e.typ() != tBool {
			return nil, fmt.Errorf("predicate of %s is not boolean", attach)
		}
		if _, err := p.expect(tkOp, "/"); err != nil {
			return nil, err
		}
		pr.Pred = e
	}
	if _, err := p.expect(tkOp, "{"); err != nil {
		return nil, err
	}
	for {
		a, err := p.action()
		if err != nil {
			return nil, err
		}
		pr.Actions = append(pr.Actions, a)
		if p.at(tkOp, ";") {
			p.next()
			// Allow a trailing semicolon before the closing brace.
			if p.at(tkOp, "}") {
				break
			}
			continue
		}
		break
	}
	if _, err := p.expect(tkOp, "}"); err != nil {
		return nil, err
	}
	return pr, nil
}

func (p *parser) attach() (Attach, error) {
	var a Attach
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return a, fmt.Errorf("offset %d: expected attach point, got %q", p.cur().pos, p.cur().text)
	}
	a.Provider = t.text
	if _, err := p.expect(tkOp, ":"); err != nil {
		return a, err
	}
	if a.Part1, err = p.attachPart(); err != nil {
		return a, err
	}
	if p.at(tkOp, ":") {
		p.next()
		if a.Part2, err = p.attachPart(); err != nil {
			return a, err
		}
	}
	if err := validateAttach(a); err != nil {
		return a, err
	}
	return a, nil
}

func (p *parser) attachPart() (string, error) {
	if p.at(tkOp, "*") {
		p.next()
		return "*", nil
	}
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return "", fmt.Errorf("offset %d: expected attach part or *, got %q", p.cur().pos, p.cur().text)
	}
	return t.text, nil
}

func (p *parser) action() (*Action, error) {
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return nil, fmt.Errorf("offset %d: expected action, got %q", p.cur().pos, p.cur().text)
	}
	fn, ok := AggFuncByName(t.text)
	if !ok {
		return nil, fmt.Errorf("offset %d: unknown action %q (want count|sum|min|max|hist|emit)", t.pos, t.text)
	}
	a := &Action{Func: fn}
	if _, err := p.expect(tkOp, "("); err != nil {
		return nil, err
	}
	if fn.needsArg() {
		f, err := p.field()
		if err != nil {
			return nil, err
		}
		if f.IsString() {
			return nil, fmt.Errorf("%s() needs a numeric field, %s is a string", fn, f)
		}
		a.Arg = f
	}
	if _, err := p.expect(tkOp, ")"); err != nil {
		return nil, err
	}
	if p.at(tkIdent, "by") {
		if fn == AggEmit {
			return nil, fmt.Errorf("emit() takes no by clause")
		}
		p.next()
		if _, err := p.expect(tkOp, "("); err != nil {
			return nil, err
		}
		for {
			f, err := p.field()
			if err != nil {
				return nil, err
			}
			for _, prev := range a.By {
				if prev == f {
					return nil, fmt.Errorf("duplicate key field %s in by clause", f)
				}
			}
			a.By = append(a.By, f)
			if p.at(tkOp, ",") {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tkOp, ")"); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func (p *parser) field() (Field, error) {
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return FNone, fmt.Errorf("offset %d: expected field, got %q", p.cur().pos, p.cur().text)
	}
	f, ok := FieldByName(t.text)
	if !ok {
		return FNone, fmt.Errorf("offset %d: unknown field %q", t.pos, t.text)
	}
	return f, nil
}

// expr parses an || chain.
func (p *parser) expr() (Expr, error) {
	l, err := p.and()
	if err != nil {
		return nil, err
	}
	for p.at(tkOp, "||") {
		t := p.next()
		r, err := p.and()
		if err != nil {
			return nil, err
		}
		if l.typ() != tBool || r.typ() != tBool {
			return nil, fmt.Errorf("offset %d: || needs boolean operands", t.pos)
		}
		l = boolExpr{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) and() (Expr, error) {
	l, err := p.cmp()
	if err != nil {
		return nil, err
	}
	for p.at(tkOp, "&&") {
		t := p.next()
		r, err := p.cmp()
		if err != nil {
			return nil, err
		}
		if l.typ() != tBool || r.typ() != tBool {
			return nil, fmt.Errorf("offset %d: && needs boolean operands", t.pos)
		}
		l = boolExpr{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) cmp() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind != tkOp {
		return l, nil
	}
	switch t.text {
	case "==", "!=", "<", "<=", ">", ">=":
	default:
		return l, nil
	}
	p.next()
	r, err := p.unary()
	if err != nil {
		return nil, err
	}
	lt, rt := l.typ(), r.typ()
	switch {
	case lt == tNum && rt == tNum:
	case lt == tStr && rt == tStr:
		if t.text != "==" && t.text != "!=" {
			return nil, fmt.Errorf("offset %d: strings compare only with == and !=", t.pos)
		}
	default:
		return nil, fmt.Errorf("offset %d: %s compares mixed or boolean operands", t.pos, t.text)
	}
	return cmpExpr{Op: t.text, L: l, R: r}, nil
}

func (p *parser) unary() (Expr, error) {
	if p.at(tkOp, "!") {
		t := p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		if x.typ() != tBool {
			return nil, fmt.Errorf("offset %d: ! needs a boolean operand", t.pos)
		}
		return notExpr{X: x}, nil
	}
	if p.at(tkOp, "-") {
		p.next()
		t, err := p.expect(tkNumber, "")
		if err != nil {
			return nil, fmt.Errorf("offset %d: expected number after -, got %q", p.cur().pos, p.cur().text)
		}
		v, perr := strconv.ParseInt("-"+t.text, 10, 64)
		if perr != nil {
			return nil, fmt.Errorf("offset %d: number out of range", t.pos)
		}
		return numExpr{V: v}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tkNumber:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("offset %d: number out of range", t.pos)
		}
		return numExpr{V: v}, nil
	case t.kind == tkString:
		p.next()
		return strExpr{V: t.text}, nil
	case t.kind == tkIdent:
		f, ok := FieldByName(t.text)
		if !ok {
			return nil, fmt.Errorf("offset %d: unknown field %q", t.pos, t.text)
		}
		p.next()
		return fieldExpr{F: f}, nil
	case t.kind == tkOp && t.text == "(":
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, fmt.Errorf("offset %d: expected expression, got %q", t.pos, t.text)
}

// ---------------------------------------------------------------------
// Canonical formatting
// ---------------------------------------------------------------------

type fmtBuf struct{ strings.Builder }

// Format renders the program in canonical form: one probe per line,
// single spaces, parenthesization preserved only where precedence
// requires it. Format(Parse(Format(p))) == Format(p) — the round-trip
// the fuzzer checks — and the canonical text is what Hash pins.
func (p *Program) Format() string {
	var b fmtBuf
	for i, pr := range p.Probes {
		if i > 0 {
			b.WriteByte('\n')
		}
		pr.format(&b)
	}
	return b.String()
}

// Hash is an FNV-1a hash of the canonical program text; probe
// artifacts pin it so validators can tell which program produced a file.
func (p *Program) Hash() uint64 {
	h := canon.NewHash()
	h.WriteString(p.Format())
	return uint64(h)
}

func (pr *Probe) format(b *fmtBuf) {
	b.WriteString(pr.Attach.String())
	if pr.Pred != nil {
		b.WriteString(" /")
		pr.Pred.format(b)
		b.WriteString("/")
	}
	b.WriteString(" { ")
	for i, a := range pr.Actions {
		if i > 0 {
			b.WriteString("; ")
		}
		a.format(b)
	}
	b.WriteString(" }")
}

func (a *Action) format(b *fmtBuf) {
	b.WriteString(a.Func.String())
	b.WriteByte('(')
	if a.Func.needsArg() {
		b.WriteString(a.Arg.String())
	}
	b.WriteByte(')')
	if len(a.By) > 0 {
		b.WriteString(" by (")
		for i, f := range a.By {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.String())
		}
		b.WriteByte(')')
	}
}

func (e fieldExpr) format(b *fmtBuf) { b.WriteString(e.F.String()) }
func (e numExpr) format(b *fmtBuf)   { b.WriteString(strconv.FormatInt(e.V, 10)) }
func (e strExpr) format(b *fmtBuf) {
	b.WriteByte('"')
	s := strings.ReplaceAll(e.V, `\`, `\\`)
	b.WriteString(strings.ReplaceAll(s, `"`, `\"`))
	b.WriteByte('"')
}

func (e cmpExpr) format(b *fmtBuf) {
	e.L.format(b)
	b.WriteByte(' ')
	b.WriteString(e.Op)
	b.WriteByte(' ')
	e.R.format(b)
}

func (e boolExpr) format(b *fmtBuf) {
	// Parenthesize operands whose top-level operator binds looser than
	// this node (|| under &&) or equal-but-explicit groupings; since the
	// AST carries no redundant parens, only precedence matters.
	wrap := func(x Expr) {
		if inner, ok := x.(boolExpr); ok && e.Op == "&&" && inner.Op == "||" {
			b.WriteByte('(')
			x.format(b)
			b.WriteByte(')')
			return
		}
		x.format(b)
	}
	wrap(e.L)
	b.WriteByte(' ')
	b.WriteString(e.Op)
	b.WriteByte(' ')
	wrap(e.R)
}

func (e notExpr) format(b *fmtBuf) {
	b.WriteByte('!')
	switch e.X.(type) {
	case boolExpr, cmpExpr:
		b.WriteByte('(')
		e.X.format(b)
		b.WriteByte(')')
	default:
		e.X.format(b)
	}
}
