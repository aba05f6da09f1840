package main

// Seeded input generators and the oracles that check every response. Nothing
// here calls the engine: the graphs are rendered as N-Triples text, the
// requests as JSON bodies, and the expected answers come from a BFS over the
// generated route and from the generated name lists.
//
// The seed permutes entity names, the order of triples in each file, the
// looked-up person and the order inside each write batch. It never changes a
// shape or a size, so row counts and chase work are the same for every seed.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

// Shapes (ISSUE 12). T: 16 lines × 3 hierarchy levels × 6 cities = 128
// triples, one route of 81 cities. U: the fixed TBox plus 4 × 2 professors
// with 3 students each. D: T plus a 5 000-person directory and 3 contacts.
const (
	nLines        = 16
	hierarchy     = 3
	citiesPerLine = 6
	nCities       = nLines*(citiesPerLine-1) + 1
	nDepts        = 4
	profsPerDept  = 2
	studsPerProf  = 3
	nPeople       = 5000
	batchTriples  = 16
)

// transportProgram is the §2 reachability query (TriQ-Lite 1.0, 5 rules).
const transportProgram = `triple(?X, partOf, transportService) -> ts(?X).
triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y).
ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y).
conn(?X, ?Y) -> query(?X, ?Y).
`

// universityQuery asks for every person; only the TBox makes professors and
// students persons, so the answer exists under the entailment regime alone.
const universityQuery = `SELECT ?X WHERE { ?X rdf:type person }`

//go:embed data/university_tbox.nt
var universityTBox string

// digest identifies an answer set: the row count and the sum of the rows'
// FNV-1a hashes. The sum is order-independent, so a response is checked
// without sorting it, and one more row updates it in O(1).
type digest struct {
	n   int
	sum uint64
}

func rowHash(row string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(row))
	return h.Sum64()
}

func digestOf(rows []string) digest {
	d := digest{n: len(rows)}
	for _, r := range rows {
		d.sum += rowHash(r)
	}
	return d
}

func (d digest) plus(e digest) digest { return digest{d.n + e.n, d.sum + e.sum} }

// inputs is everything one run feeds the system, derived from the seed alone.
type inputs struct {
	seed int64

	cities   []string // the route, in travel order
	lastLine string   // service of the route's final edge
	person   []string // directory people
	looked   string   // the person lookup_big asks about

	T, U, D string // N-Triples files

	closure  digest // transport answer over T (and D)
	persons  digest // university answer
	contacts digest // lookup answer
}

func iri(name string) string { return "<" + name + ">" }

func nt(s, p, o string) string { return s + " " + p + " " + o + " ." }

// shuffled joins lines in a seeded order, so two seeds present the same
// triples in different file positions.
func shuffled(rng *rand.Rand, lines []string) string {
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return strings.Join(lines, "\n") + "\n"
}

func generate(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed}

	// Transport: line l serves cities l*5 … l*5+5 and hangs two hierarchy
	// nodes below transportService. Names carry permuted numbers.
	cityNo, lineNo := rng.Perm(nCities), rng.Perm(nLines)
	for _, n := range cityNo {
		in.cities = append(in.cities, iri(fmt.Sprintf("city_%d", n)))
	}
	var t []string
	for l := 0; l < nLines; l++ {
		line := fmt.Sprintf("t_line%d", lineNo[l])
		parent := "<transportService>"
		for d := hierarchy - 1; d >= 1; d-- {
			node := iri(fmt.Sprintf("%s_lvl%d", line, d))
			t = append(t, nt(node, "<partOf>", parent))
			parent = node
		}
		t = append(t, nt(iri(line), "<partOf>", parent))
		for c := 0; c+1 < citiesPerLine; c++ {
			i := l*(citiesPerLine-1) + c
			t = append(t, nt(in.cities[i], iri(line), in.cities[i+1]))
		}
		in.lastLine = iri(line)
	}
	in.closure = closureOf(in.cities)

	// University ABox over the literal TBox.
	deptNo := rng.Perm(nDepts)
	u := strings.Split(strings.TrimSpace(universityTBox), "\n")
	var persons []string
	for d := 0; d < nDepts; d++ {
		dept := iri(fmt.Sprintf("dept%d", deptNo[d]))
		for p := 0; p < profsPerDept; p++ {
			prof := iri(fmt.Sprintf("prof_%d_%d", deptNo[d], p))
			role := "<worksFor>"
			if p == 0 {
				role = "<headOf>"
			}
			u = append(u, nt(prof, role, dept), nt(prof, "<rdf:type>", "<professor>"))
			persons = append(persons, "{?X→"+prof+"}")
			for s := 0; s < studsPerProf; s++ {
				stud := iri(fmt.Sprintf("stud_%d_%d_%d", deptNo[d], p, s))
				u = append(u, nt(prof, "<advises>", stud))
				persons = append(persons, "{?X→"+stud+"}")
			}
		}
	}
	in.persons = digestOf(persons)

	// Directory, plus three contact triples around one looked-up person.
	personNo := rng.Perm(nPeople)
	dir := append([]string(nil), t...)
	for _, n := range personNo {
		p := iri(fmt.Sprintf("person_%d", n))
		in.person = append(in.person, p)
		dir = append(dir,
			nt(p, "<name>", fmt.Sprintf(`"Person %d"`, n)),
			nt(p, "<phone>", fmt.Sprintf(`"555-%04d"`, n)))
	}
	in.looked = in.person[rng.Intn(nPeople)]
	a, b := in.person[rng.Intn(nPeople)], in.person[rng.Intn(nPeople)]
	for b == a {
		b = in.person[rng.Intn(nPeople)]
	}
	mail := fmt.Sprintf(`"contact%03d@example.org"`, rng.Intn(1000))
	dir = append(dir, nt(in.looked, "<knows>", a), nt(in.looked, "<knows>", b), nt(a, "<email>", mail))
	in.contacts = digestOf([]string{"{?E→" + mail + ", ?Y→" + a + "}", "{?Y→" + b + "}"})

	in.T, in.U, in.D = shuffled(rng, t), shuffled(rng, u), shuffled(rng, dir)
	return in
}

// closureOf is the transport oracle: breadth-first search from every city
// over the route's edges, one "<from> <to>" row per reachable pair.
func closureOf(route []string) digest {
	next := make(map[string][]string, len(route))
	for i := 0; i+1 < len(route); i++ {
		next[route[i]] = append(next[route[i]], route[i+1])
	}
	var d digest
	for _, from := range route {
		seen := map[string]bool{}
		queue := append([]string(nil), next[from]...)
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			if seen[c] {
				continue
			}
			seen[c] = true
			d = d.plus(digest{1, rowHash(from + " " + c)})
			queue = append(queue, next[c]...)
		}
	}
	return d
}

// lookupQuery is the point lookup with OPTIONAL; it derives a handful of
// facts, so its cost is the cost of loading and copying D.
func (in *inputs) lookupQuery() string {
	return "SELECT ?Y ?E WHERE { " + in.looked + " <knows> ?Y . OPTIONAL { ?Y <email> ?E } }"
}

// spur is the city write batch k hangs behind the end of the route.
func spur(k int) string { return iri(fmt.Sprintf("city_w_%d", k)) }

// batch renders write batch k: 15 fresh directory triples and the spur edge
// <last city> <last line> <city_w_k>, in a seeded order. Inserting it makes
// spur(k) reachable from all 81 cities; deleting it undoes exactly that.
func (in *inputs) batch(k int) string {
	lines := []string{nt(in.cities[nCities-1], in.lastLine, spur(k))}
	for j := 0; len(lines) < batchTriples; j++ {
		p := iri(fmt.Sprintf("person_w%d_%d", k, j/2))
		if j%2 == 0 {
			lines = append(lines, nt(p, "<name>", fmt.Sprintf(`"Writer %d.%d"`, k, j/2)))
		} else {
			lines = append(lines, nt(p, "<phone>", fmt.Sprintf(`"556-%d-%d"`, k, j/2)))
		}
	}
	return shuffled(rand.New(rand.NewSource(in.seed<<20+int64(k))), lines)
}

// closureWithSpur is the transport answer while batch k is inserted.
func (in *inputs) closureWithSpur(k int) digest {
	d := in.closure
	for _, c := range in.cities {
		d = d.plus(digest{1, rowHash(c + " " + spur(k))})
	}
	return d
}

// closureAt is the transport answer at a store epoch of the write mix, whose
// single writer alternates insert and delete of batches 0, 1, 2, …: the
// bootstrap is epoch 1, so batch k is present exactly at epoch 2k+2.
func (in *inputs) closureAt(epoch uint64) digest {
	if epoch%2 == 1 {
		return in.closure
	}
	return in.closureWithSpur(int(epoch/2) - 1)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings are passed
	}
	return b
}

func queryBody(program string) []byte { return mustJSON(map[string]string{"program": program}) }

func sparqlBody(query, regime string) []byte {
	return mustJSON(map[string]string{"query": query, "regime": regime})
}

func mutationBody(triples string) []byte { return mustJSON(map[string]string{"triples": triples}) }
