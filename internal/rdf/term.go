// Package rdf implements the RDF data model used throughout the paper
// "Expressive Languages for Querying the Semantic Web" (Arenas, Gottlob,
// Pieris; TODS 2018): terms (URIs, blank nodes, literals), triples, and
// indexed RDF graphs, together with an N-Triples reader and writer.
//
// Following Section 3 of the paper, RDF graphs proper contain only URIs
// (footnote 5: literals and blank nodes are omitted from graphs without loss
// of generality). Blank nodes are still first-class terms because they occur
// in SPARQL basic graph patterns, where they act as existential variables,
// and literals are supported so that realistic data files round-trip.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// IRI is a URI reference (the set U of the paper).
	IRI TermKind = iota
	// Blank is a blank node (the set B of the paper).
	Blank
	// Literal is an RDF literal (plain, typed, or language-tagged).
	Literal
)

func (k TermKind) String() string {
	switch k {
	case IRI:
		return "IRI"
	case Blank:
		return "Blank"
	case Literal:
		return "Literal"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is an RDF term. Terms are value types and compare with ==.
type Term struct {
	// Kind says whether the term is an IRI, blank node, or literal.
	Kind TermKind
	// Value holds the IRI string, the blank node label (without the "_:"
	// prefix), or the literal's lexical form.
	Value string
	// Datatype is the datatype IRI of a typed literal, empty otherwise.
	Datatype string
	// Lang is the language tag of a language-tagged literal, empty otherwise.
	Lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewTypedLiteral returns a literal with a datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: Literal, Value: lex, Lang: lang}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// String renders the term in N-Triples surface syntax.
func (t Term) String() string {
	var buf [64]byte
	return string(t.AppendNT(buf[:0]))
}

// AppendNT appends the term's N-Triples surface syntax to buf.
func (t Term) AppendNT(buf []byte) []byte {
	switch t.Kind {
	case IRI:
		buf = append(buf, '<')
		buf = append(buf, escapeIRI(t.Value)...)
		return append(buf, '>')
	case Blank:
		buf = append(buf, "_:"...)
		return append(buf, t.Value...)
	case Literal:
		buf = append(buf, '"')
		buf = append(buf, escapeLiteral(t.Value)...)
		buf = append(buf, '"')
		if t.Lang != "" {
			buf = append(buf, '@')
			buf = append(buf, t.Lang...)
		} else if t.Datatype != "" {
			buf = append(buf, "^^<"...)
			buf = append(buf, escapeIRI(t.Datatype)...)
			buf = append(buf, '>')
		}
		return buf
	default:
		return fmt.Appendf(buf, "<invalid term kind %d>", t.Kind)
	}
}

// Compare orders terms lexicographically by (kind, value, datatype, lang).
// It returns -1, 0, or +1.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, u.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, u.Lang)
}

func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeIRI makes an IRI value safe for the angle-bracket form: '>' would
// terminate the bracket early and '\' would be read as an escape introducer,
// so both are backslash-escaped, as are the line/column controls that would
// break the line-oriented reader. The parser's iri() decodes the same set.
func escapeIRI(s string) string {
	if !strings.ContainsAny(s, ">\\\n\r\t") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '>':
			b.WriteString(`\>`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Well-known vocabulary IRIs used by the paper's examples and by the
// OWL 2 QL core mapping of Table 1.
const (
	RDFType                 = "rdf:type"
	RDFSSubClassOf          = "rdfs:subClassOf"
	RDFSSubPropertyOf       = "rdfs:subPropertyOf"
	OWLClass                = "owl:Class"
	OWLObjectProperty       = "owl:ObjectProperty"
	OWLRestriction          = "owl:Restriction"
	OWLOnProperty           = "owl:onProperty"
	OWLSomeValuesFrom       = "owl:someValuesFrom"
	OWLThing                = "owl:Thing"
	OWLInverseOf            = "owl:inverseOf"
	OWLDisjointWith         = "owl:disjointWith"
	OWLPropertyDisjointWith = "owl:propertyDisjointWith"
	OWLSameAs               = "owl:sameAs"
)
