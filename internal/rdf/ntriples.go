package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseNTriples reads a graph in (a pragmatic superset of) N-Triples syntax:
// one triple per line, terms separated by whitespace, a terminating dot,
// comments starting with '#'. IRIs may be written either in angle brackets
// (<http://…>) or as bare prefixed names (rdf:type, dbUllman) — the latter
// matches the notation used throughout the paper's examples.
func ParseNTriples(r io.Reader) (*Graph, error) {
	g := NewGraph()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseTripleLine(line)
		if err != nil {
			return nil, fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
		g.Add(t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rdf: reading input: %w", err)
	}
	return g, nil
}

// ParseNTriplesString is ParseNTriples over a string.
func ParseNTriplesString(s string) (*Graph, error) {
	return ParseNTriples(strings.NewReader(s))
}

// MustParseNTriples parses the input and panics on error; intended for
// tests and examples with literal data.
func MustParseNTriples(s string) *Graph {
	g, err := ParseNTriplesString(s)
	if err != nil {
		panic(err)
	}
	return g
}

// WriteNTriples writes the triples as N-Triples, one line each, in the order
// given: the one place a triple becomes a line of text, behind Graph.String,
// the WAL payload and the snapshot file. It does not buffer; hand it a
// buffered writer when w is a file.
func WriteNTriples(w io.Writer, triples []Triple) error {
	for _, t := range triples {
		_, err := io.WriteString(w, t.String())
		if err == nil {
			_, err = io.WriteString(w, "\n")
		}
		if err != nil {
			return fmt.Errorf("rdf: writing triple: %w", err)
		}
	}
	return nil
}

func parseTripleLine(line string) (Triple, error) {
	p := &ntParser{in: line}
	s, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	pred, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	p.skipSpace()
	if !p.eat('.') {
		return Triple{}, fmt.Errorf("expected terminating '.' at %q", p.rest())
	}
	p.skipSpace()
	if !p.atEOF() && !strings.HasPrefix(p.rest(), "#") {
		return Triple{}, fmt.Errorf("trailing content %q", p.rest())
	}
	return Triple{S: s, P: pred, O: o}, nil
}

type ntParser struct {
	in  string
	pos int
}

func (p *ntParser) atEOF() bool  { return p.pos >= len(p.in) }
func (p *ntParser) rest() string { return p.in[p.pos:] }
func (p *ntParser) peek() byte   { return p.in[p.pos] }

func (p *ntParser) skipSpace() {
	for !p.atEOF() && (p.peek() == ' ' || p.peek() == '\t') {
		p.pos++
	}
}

func (p *ntParser) eat(c byte) bool {
	if !p.atEOF() && p.peek() == c {
		p.pos++
		return true
	}
	return false
}

func (p *ntParser) term() (Term, error) {
	p.skipSpace()
	if p.atEOF() {
		return Term{}, fmt.Errorf("unexpected end of line")
	}
	switch p.peek() {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	default:
		return p.bareName()
	}
}

func (p *ntParser) iri() (Term, error) {
	p.pos++ // consume '<'
	var b strings.Builder
	for {
		if p.atEOF() {
			return Term{}, fmt.Errorf("unterminated IRI")
		}
		c := p.peek()
		if c == '>' {
			p.pos++
			break
		}
		if c == '\\' {
			// Decode the writer's escapeIRI set so IRIs containing '>' or
			// '\' round-trip through the angle-bracket form.
			p.pos++
			if p.atEOF() {
				return Term{}, fmt.Errorf("dangling escape in IRI")
			}
			switch p.peek() {
			case '>':
				b.WriteByte('>')
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			default:
				return Term{}, fmt.Errorf("unknown escape \\%c in IRI", p.peek())
			}
			p.pos++
			continue
		}
		b.WriteByte(c)
		p.pos++
	}
	return NewIRI(b.String()), nil
}

func (p *ntParser) blank() (Term, error) {
	if !strings.HasPrefix(p.rest(), "_:") {
		return Term{}, fmt.Errorf("expected blank node at %q", p.rest())
	}
	p.pos += 2
	start := p.pos
	for !p.atEOF() && isNameByte(p.peek()) {
		p.pos++
	}
	if p.pos == start {
		return Term{}, fmt.Errorf("empty blank node label")
	}
	return NewBlank(p.in[start:p.pos]), nil
}

func (p *ntParser) literal() (Term, error) {
	p.pos++ // consume '"'
	var b strings.Builder
	for {
		if p.atEOF() {
			return Term{}, fmt.Errorf("unterminated literal")
		}
		c := p.peek()
		if c == '"' {
			p.pos++
			break
		}
		if c == '\\' {
			p.pos++
			if p.atEOF() {
				return Term{}, fmt.Errorf("dangling escape in literal")
			}
			switch p.peek() {
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return Term{}, fmt.Errorf("unknown escape \\%c", p.peek())
			}
			p.pos++
			continue
		}
		b.WriteByte(c)
		p.pos++
	}
	lex := b.String()
	if strings.HasPrefix(p.rest(), "^^") {
		p.pos += 2
		dt, err := p.iri()
		if err != nil {
			return Term{}, fmt.Errorf("literal datatype: %w", err)
		}
		return NewTypedLiteral(lex, dt.Value), nil
	}
	if p.eat('@') {
		start := p.pos
		for !p.atEOF() && (isNameByte(p.peek()) || p.peek() == '-') {
			p.pos++
		}
		if p.pos == start {
			return Term{}, fmt.Errorf("empty language tag")
		}
		return NewLangLiteral(lex, p.in[start:p.pos]), nil
	}
	return NewLiteral(lex), nil
}

// bareName accepts the paper's notation: an unquoted token such as
// dbUllman, rdf:type, is_author_of, ∃eats. It is read as an IRI.
func (p *ntParser) bareName() (Term, error) {
	start := p.pos
	for !p.atEOF() {
		c := p.peek()
		if c == ' ' || c == '\t' {
			break
		}
		// A final '.' terminates the triple rather than the name, but dots
		// inside names (e.g. version numbers) are preserved.
		if c == '.' && (p.pos+1 >= len(p.in) || p.in[p.pos+1] == ' ' || p.in[p.pos+1] == '\t') {
			break
		}
		p.pos++
	}
	if p.pos == start {
		return Term{}, fmt.Errorf("expected term at %q", p.rest())
	}
	return NewIRI(p.in[start:p.pos]), nil
}

func isNameByte(c byte) bool {
	return c == '_' || c == ':' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}
