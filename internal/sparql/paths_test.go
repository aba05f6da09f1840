package sparql

import (
	"testing"

	"repro/internal/rdf"
)

func pathGraph() *rdf.Graph {
	return rdf.NewGraph(
		rdf.T("a", "p", "b"), rdf.T("b", "p", "c"), rdf.T("c", "p", "d"),
		rdf.T("a", "q", "c"),
	)
}

func pair(s, o string) TermPair {
	return TermPair{rdf.NewIRI(s), rdf.NewIRI(o)}
}

func TestEvalPathBasics(t *testing.T) {
	g := pathGraph()
	cases := []struct {
		path string
		want []TermPair
	}{
		{"p", []TermPair{pair("a", "b"), pair("b", "c"), pair("c", "d")}},
		{"^p", []TermPair{pair("b", "a"), pair("c", "b"), pair("d", "c")}},
		{"p/p", []TermPair{pair("a", "c"), pair("b", "d")}},
		{"p|q", []TermPair{pair("a", "b"), pair("b", "c"), pair("c", "d"), pair("a", "c")}},
		{"p/^p", []TermPair{pair("a", "a"), pair("b", "b"), pair("c", "c")}},
		{"q/^p", []TermPair{pair("a", "b")}},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			got := EvalPath(g, MustParsePath(tc.path))
			want := make(PairSet)
			for _, p := range tc.want {
				want[p] = true
			}
			if !got.Equal(want) {
				t.Errorf("⟦%s⟧ = %v, want %v", tc.path, got.Sorted(), want.Sorted())
			}
		})
	}
}

func TestEvalPathClosures(t *testing.T) {
	g := pathGraph()
	plus := EvalPath(g, MustParsePath("p+"))
	if len(plus) != 6 { // ab ac ad bc bd cd
		t.Errorf("p+ = %v", plus.Sorted())
	}
	if !plus[pair("a", "d")] {
		t.Error("p+ missing (a,d)")
	}
	star := EvalPath(g, MustParsePath("p*"))
	// p+ pairs plus identity on every graph term (a b c d).
	if len(star) != 6+4 {
		t.Errorf("p* = %v", star.Sorted())
	}
	if !star[pair("d", "d")] {
		t.Error("p* missing zero-length (d,d)")
	}
	opt := EvalPath(g, MustParsePath("q?"))
	if len(opt) != 1+4 {
		t.Errorf("q? = %v", opt.Sorted())
	}
}

func TestEvalPathCycle(t *testing.T) {
	g := rdf.NewGraph(rdf.T("a", "p", "b"), rdf.T("b", "p", "a"))
	plus := EvalPath(g, MustParsePath("p+"))
	for _, w := range []TermPair{pair("a", "a"), pair("a", "b"), pair("b", "a"), pair("b", "b")} {
		if !plus[w] {
			t.Errorf("p+ over a cycle missing %v", w)
		}
	}
}

func TestParsePathPrecedence(t *testing.T) {
	// '|' binds loosest, '/' next, postfix tightest.
	p := MustParsePath("a/b|c+")
	alt, ok := p.(PathAlt)
	if !ok {
		t.Fatalf("top = %T, want PathAlt", p)
	}
	if _, ok := alt.L.(PathSeq); !ok {
		t.Errorf("left of | = %T, want PathSeq", alt.L)
	}
	if _, ok := alt.R.(PathPlus); !ok {
		t.Errorf("right of | = %T, want PathPlus", alt.R)
	}
	// ^ wraps the whole path element including its modifier (SPARQL 1.1
	// grammar: '^' PathElt, PathElt ::= PathPrimary PathMod?).
	p2 := MustParsePath("^(a/b)*")
	inv, ok := p2.(PathInv)
	if !ok {
		t.Fatalf("p2 = %T, want PathInv", p2)
	}
	if _, ok := inv.P.(PathStar); !ok {
		t.Errorf("inside ^ = %T, want PathStar", inv.P)
	}
	p3 := MustParsePath("<http://x/y>+")
	if plus, ok := p3.(PathPlus); !ok || plus.P.(PathIRI).IRI != "http://x/y" {
		t.Errorf("bracketed IRI path = %v", p3)
	}
}

func TestParsePathErrors(t *testing.T) {
	for _, src := range []string{"", "a/", "(a", "(((", "a)", "|a", "<unterminated", "a b"} {
		if _, err := ParsePath(src); err == nil {
			t.Errorf("ParsePath(%q) succeeded, want error", src)
		}
	}
}

func TestPathStrings(t *testing.T) {
	for _, src := range []string{"a", "^a", "a/b", "a|b", "a*", "a+", "a?", "^(a|b)+"} {
		p := MustParsePath(src)
		// Round-trip: the rendering must re-parse to a semantically equal
		// expression (check on a sample graph).
		back, err := ParsePath(p.String())
		if err != nil {
			t.Fatalf("re-parse of %q → %q failed: %v", src, p.String(), err)
		}
		g := pathGraph()
		if !EvalPath(g, p).Equal(EvalPath(g, back)) {
			t.Errorf("round trip changed semantics of %q", src)
		}
	}
}

func TestEnumeratePaths(t *testing.T) {
	exprs := EnumeratePaths([]string{"p"}, 3)
	// size 1: p. size 2: ^p, p*, p+, p?. size 3: unary over size-2 (16)
	// plus p/p, p|p.
	if len(exprs) != 1+4+16+2 {
		t.Errorf("enumerated %d expressions, want 23", len(exprs))
	}
	seen := make(map[string]bool)
	for _, e := range exprs {
		if seen[e.String()] {
			t.Errorf("duplicate expression %s", e)
		}
		seen[e.String()] = true
	}
	if len(EnumeratePaths([]string{"p", "q"}, 1)) != 2 {
		t.Error("size-1 enumeration wrong")
	}
}
