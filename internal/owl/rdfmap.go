package owl

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/rdf"
)

// This file implements the ontology ⇄ RDF mapping of Section 5.2: the
// vocabulary triples declaring classes, properties, inverses, and the ∃r
// restrictions, plus the axiom triples of Table 1.
//
// Note: the paper writes owl:someValueFrom in the Section 5.2 program and
// owl:someValuesFrom in the Section 2 examples; this implementation
// standardizes on the correct OWL spelling owl:someValuesFrom.

// ToGraph serializes the ontology as an RDF graph.
func (o *Ontology) ToGraph() *rdf.Graph {
	g := rdf.NewGraph()
	for _, a := range o.Classes {
		g.Add(rdf.T(a, rdf.RDFType, rdf.OWLClass))
	}
	for _, name := range o.Properties {
		p, pi := Prop(name), Inv(name)
		g.Add(
			rdf.T(p.URI(), rdf.RDFType, rdf.OWLObjectProperty),
			rdf.T(pi.URI(), rdf.RDFType, rdf.OWLObjectProperty),
			rdf.T(p.URI(), rdf.OWLInverseOf, pi.URI()),
			rdf.T(pi.URI(), rdf.OWLInverseOf, p.URI()),
		)
		for _, r := range []Property{p, pi} {
			e := Some(r)
			g.Add(
				rdf.T(e.URI(), rdf.RDFType, rdf.OWLRestriction),
				rdf.T(e.URI(), rdf.OWLOnProperty, r.URI()),
				rdf.T(e.URI(), rdf.OWLSomeValuesFrom, rdf.OWLThing),
				rdf.T(e.URI(), rdf.RDFType, rdf.OWLClass),
			)
		}
	}
	for _, ax := range o.Axioms {
		g.Add(ax.Triple())
	}
	return g
}

// Triple renders the axiom as its RDF triple per Table 1.
func (ax Axiom) Triple() rdf.Triple {
	switch ax.Kind {
	case SubClassOfKind:
		return rdf.T(ax.C1.URI(), rdf.RDFSSubClassOf, ax.C2.URI())
	case SubPropertyOfKind:
		return rdf.T(ax.P1.URI(), rdf.RDFSSubPropertyOf, ax.P2.URI())
	case DisjointClassesKind:
		return rdf.T(ax.C1.URI(), rdf.OWLDisjointWith, ax.C2.URI())
	case DisjointPropertiesKind:
		return rdf.T(ax.P1.URI(), rdf.OWLPropertyDisjointWith, ax.P2.URI())
	case ClassAssertionKind:
		return rdf.T(ax.A1, rdf.RDFType, ax.C1.URI())
	case PropertyAssertionKind:
		return rdf.T(ax.A1, ax.P1.Name, ax.A2)
	default:
		panic(fmt.Sprintf("owl: unknown axiom kind %d", ax.Kind))
	}
}

// FromGraph parses an RDF graph that represents an OWL 2 QL core ontology
// back into its axioms. Triples it cannot interpret are reported as an
// error, so tests can assert lossless round-trips.
func FromGraph(g *rdf.Graph) (*Ontology, error) {
	o := NewOntology()
	restrictions := make(map[string]Property) // restriction URI → property
	isProperty := make(map[string]bool)

	// Pass 1: vocabulary.
	typeIRI := rdf.NewIRI(rdf.RDFType)
	for _, t := range g.Match(nil, &typeIRI, nil) {
		switch t.O.Value {
		case rdf.OWLObjectProperty:
			isProperty[t.S.Value] = true
			if !strings.HasSuffix(t.S.Value, "⁻") {
				o.AddProperty(t.S.Value)
			}
		case rdf.OWLRestriction:
			restrictions[t.S.Value] = Property{}
		}
	}
	onPropIRI := rdf.NewIRI(rdf.OWLOnProperty)
	for _, t := range g.Match(nil, &onPropIRI, nil) {
		if _, ok := restrictions[t.S.Value]; !ok {
			return nil, fmt.Errorf("owl: onProperty on non-restriction %s", t.S.Value)
		}
		restrictions[t.S.Value] = parseProperty(t.O.Value)
	}
	for _, t := range g.Match(nil, &typeIRI, nil) {
		if t.O.Value == rdf.OWLClass {
			if _, isRestr := restrictions[t.S.Value]; !isRestr {
				o.AddClass(t.S.Value)
			}
		}
	}

	classTerm := func(uri string) (Class, error) {
		if p, ok := restrictions[uri]; ok {
			if p.Name == "" {
				return Class{}, fmt.Errorf("owl: restriction %s has no owl:onProperty", uri)
			}
			return Some(p), nil
		}
		return Atom(uri), nil
	}

	// Pass 2: axioms.
	for _, t := range g.Triples() {
		if !t.S.IsIRI() || !t.P.IsIRI() || !t.O.IsIRI() {
			return nil, fmt.Errorf("owl: non-URI triple %v", t)
		}
		switch t.P.Value {
		case rdf.RDFSSubClassOf:
			c1, err := classTerm(t.S.Value)
			if err != nil {
				return nil, err
			}
			c2, err := classTerm(t.O.Value)
			if err != nil {
				return nil, err
			}
			o.Add(SubClassOf(c1, c2))
		case rdf.RDFSSubPropertyOf:
			o.Add(SubPropertyOf(parseProperty(t.S.Value), parseProperty(t.O.Value)))
		case rdf.OWLDisjointWith:
			c1, err := classTerm(t.S.Value)
			if err != nil {
				return nil, err
			}
			c2, err := classTerm(t.O.Value)
			if err != nil {
				return nil, err
			}
			o.Add(DisjointClasses(c1, c2))
		case rdf.OWLPropertyDisjointWith:
			o.Add(DisjointProperties(parseProperty(t.S.Value), parseProperty(t.O.Value)))
		case rdf.RDFType:
			switch t.O.Value {
			case rdf.OWLClass, rdf.OWLObjectProperty, rdf.OWLRestriction:
				// vocabulary, handled in pass 1
			default:
				c, err := classTerm(t.O.Value)
				if err != nil {
					return nil, err
				}
				o.Add(ClassAssertion(c, t.S.Value))
			}
		case rdf.OWLOnProperty, rdf.OWLSomeValuesFrom, rdf.OWLInverseOf:
			// vocabulary, handled in pass 1
		default:
			if !isProperty[t.P.Value] && !contains(o.Properties, t.P.Value) {
				// A bare data triple over an undeclared property: accept it
				// as a property assertion, declaring the property — RDF
				// graphs in the wild omit vocabulary triples for plain data.
				o.AddProperty(t.P.Value)
			}
			p := parseProperty(t.P.Value)
			if p.Inverse {
				o.Add(PropertyAssertion(p.Name, t.O.Value, t.S.Value))
			} else {
				o.Add(PropertyAssertion(p.Name, t.S.Value, t.O.Value))
			}
		}
	}
	return o, nil
}

func parseProperty(uri string) Property {
	if strings.HasSuffix(uri, "⁻") {
		return Inv(strings.TrimSuffix(uri, "⁻"))
	}
	return Prop(uri)
}

// LoadGraph reads an N-Triples data file and, when ontologyPath is set, merges
// the RDF serialization of that ontology (functional-style syntax) into it:
// what the -data and -ontology flags of triq and triqd mean.
func LoadGraph(dataPath, ontologyPath string) (*rdf.Graph, error) {
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := rdf.ParseNTriples(f)
	if err != nil || ontologyPath == "" {
		return g, err
	}
	src, err := os.ReadFile(ontologyPath)
	if err != nil {
		return nil, err
	}
	onto, err := ParseOntology(string(src))
	if err != nil {
		return nil, err
	}
	g.AddGraph(onto.ToGraph())
	return g, nil
}
