package rdf

import (
	"strings"
	"testing"
)

func TestParseNTriplesBasics(t *testing.T) {
	in := `
# the paper's graph G1
dbUllman is_author_of "The Complete Book" .
dbUllman name "Jeffrey Ullman" .
<http://example.org/x> <http://example.org/p> _:b0 .
a b "typed"^^<xsd:int> .
a b "tagged"@en .
`
	g, err := ParseNTriplesString(in)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5\n%s", g.Len(), g)
	}
	if !g.Has(Triple{S: NewIRI("dbUllman"), P: NewIRI("name"), O: NewLiteral("Jeffrey Ullman")}) {
		t.Error("missing bare-name triple with plain literal")
	}
	if !g.Has(Triple{S: NewIRI("http://example.org/x"), P: NewIRI("http://example.org/p"), O: NewBlank("b0")}) {
		t.Error("missing bracketed-IRI triple with blank object")
	}
	if !g.Has(Triple{S: NewIRI("a"), P: NewIRI("b"), O: NewTypedLiteral("typed", "xsd:int")}) {
		t.Error("missing typed literal triple")
	}
	if !g.Has(Triple{S: NewIRI("a"), P: NewIRI("b"), O: NewLangLiteral("tagged", "en")}) {
		t.Error("missing lang literal triple")
	}
}

func TestParseNTriplesRoundTrip(t *testing.T) {
	g := NewGraph(
		T("a", "p", "b"),
		Triple{S: NewIRI("s"), P: NewIRI("p"), O: NewLiteral("line\nbreak \"q\" \\slash")},
		Triple{S: NewBlank("x"), P: NewIRI("p"), O: NewTypedLiteral("3", "xsd:integer")},
		Triple{S: NewIRI("s"), P: NewIRI("p"), O: NewLangLiteral("hello", "en-GB")},
	)
	var sb strings.Builder
	if err := WriteNTriples(&sb, g.Canonical()); err != nil {
		t.Fatal(err)
	}
	h, err := ParseNTriplesString(sb.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\noutput was:\n%s", err, sb.String())
	}
	if !g.Equal(h) {
		t.Errorf("round trip changed graph.\nbefore:\n%s\nafter:\n%s", g, h)
	}
}

func TestParseNTriplesErrors(t *testing.T) {
	bad := []string{
		"a b",                 // too few terms, no dot
		"a b c",               // missing dot
		"a b c . extra",       // trailing garbage
		`a b "unterminated .`, // unterminated literal
		"<unterminated b c .", // unterminated IRI
		"_: b c .",            // empty blank label
		`a b "x"@ .`,          // empty language tag
		`a b "bad\q" .`,       // unknown escape
	}
	for _, in := range bad {
		if _, err := ParseNTriplesString(in); err == nil {
			t.Errorf("ParseNTriples(%q) succeeded, want error", in)
		}
	}
}

func TestParseNTriplesDotInName(t *testing.T) {
	g, err := ParseNTriplesString("v1.2 p o .")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(T("v1.2", "p", "o")) {
		t.Errorf("dot inside a bare name should be preserved, got %s", g)
	}
}

func TestMustParseNTriplesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseNTriples should panic on bad input")
		}
	}()
	MustParseNTriples("a b")
}

func TestParseNTriplesCommentAfterDot(t *testing.T) {
	g, err := ParseNTriplesString("a b c . # trailing comment")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(T("a", "b", "c")) {
		t.Error("triple with trailing comment not parsed")
	}
}
