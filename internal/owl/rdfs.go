package owl

import (
	"sync"

	"repro/internal/datalog"
)

// RDFSProgramSrc is a fixed rule library for the ρdf core of RDFS (after
// Muñoz, Pérez, Gutierrez, "Simple and Efficient Minimal RDFS"), in the same
// style as τ_owl2ql_core: the paper's Section 2 motivates exactly this kind
// of reusable library ("if such rules are available as a library, then the
// user just has to include them"). The program is plain Datalog — hence
// trivially a TriQ-Lite 1.0 rule set — and derives the RDFS-entailed triples
// into triple1(·,·,·).
const RDFSProgramSrc = `
% ρdf — the minimal deductive core of RDFS as a fixed rule library.

triple(?X, ?Y, ?Z) -> C(?X), C(?Y), C(?Z).
triple(?X, ?Y, ?Z) -> triple1(?X, ?Y, ?Z).

% subPropertyOf: transitivity and inheritance.
triple1(?A, rdfs:subPropertyOf, ?B), triple1(?B, rdfs:subPropertyOf, ?D) ->
	triple1(?A, rdfs:subPropertyOf, ?D).
triple1(?A, rdfs:subPropertyOf, ?B), triple1(?X, ?A, ?Y) ->
	triple1(?X, ?B, ?Y).

% subClassOf: transitivity and type inheritance.
triple1(?A, rdfs:subClassOf, ?B), triple1(?B, rdfs:subClassOf, ?D) ->
	triple1(?A, rdfs:subClassOf, ?D).
triple1(?A, rdfs:subClassOf, ?B), triple1(?X, rdf:type, ?A) ->
	triple1(?X, rdf:type, ?B).

% domain and range typing.
triple1(?A, rdfs:domain, ?D), triple1(?X, ?A, ?Y) ->
	triple1(?X, rdf:type, ?D).
triple1(?A, rdfs:range, ?R), triple1(?X, ?A, ?Y) ->
	triple1(?Y, rdf:type, ?R).
`

// RDFSProgram returns the fixed ρdf library, parsed once per process. Like
// Program, it is shared and read-only.
func RDFSProgram() *datalog.Program { return RDFSLibrary().Program() }

// RDFSLibrary returns the ρdf library checked and analysed once per process,
// as Library does τ_owl2ql_core.
func RDFSLibrary() *datalog.Library { return rdfsLibrary() }

var rdfsLibrary = sync.OnceValue(func() *datalog.Library { return datalog.NewLibrary(datalog.MustParse(RDFSProgramSrc)) })
