package obs

import (
	"bufio"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Strict Prometheus text-exposition (0.0.4) conformance for /metrics: every
// series name legal, exactly one # TYPE line per family emitted before its
// samples, label syntax and escaping valid, no duplicate series, histogram
// _bucket series cumulative and non-decreasing with ascending le bounds
// ending at +Inf, _count equal to the +Inf bucket, _sum present, and every
// value a parseable float. A registry stuffed with hostile metric names
// (dots, dashes, unicode, leading digits, histogram-colliding scalars) must
// still render a clean exposition.

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   string
}

// parsePromExposition validates the full text format line-by-line and
// returns the samples grouped by family, preserving sample order.
func parsePromExposition(t *testing.T, text string) (map[string]string, map[string][]promSample) {
	t.Helper()
	types := map[string]string{} // family -> kind
	samples := map[string][]promSample{}
	typeSeen := map[string]bool{}   // family -> # TYPE emitted
	familyDone := map[string]bool{} // family -> a later family started (interleave check)
	var current string

	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 2 || (fields[1] != "TYPE" && fields[1] != "HELP") {
				t.Fatalf("malformed comment line %q", line)
			}
			if fields[1] != "TYPE" {
				continue
			}
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			fam, kind := fields[2], fields[3]
			if !promNameRe.MatchString(fam) {
				t.Fatalf("illegal family name in %q", line)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("illegal TYPE %q in %q", kind, line)
			}
			if typeSeen[fam] {
				t.Fatalf("duplicate # TYPE for family %q", fam)
			}
			if familyDone[fam] {
				t.Fatalf("family %q interleaved with another family", fam)
			}
			typeSeen[fam] = true
			types[fam] = kind
			if current != "" && current != fam {
				familyDone[current] = true
			}
			current = fam
			continue
		}
		s := parsePromSample(t, line)
		fam := sampleFamily(s.name, types)
		if !typeSeen[fam] {
			t.Fatalf("sample %q precedes its # TYPE line", line)
		}
		if fam != current {
			t.Fatalf("sample %q outside its family block (current %q)", line, current)
		}
		samples[fam] = append(samples[fam], s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types, samples
}

// sampleFamily maps a series name to its family: histogram-derived suffixes
// fold onto the base name when the base is a declared histogram.
func sampleFamily(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// parsePromSample validates one sample line: name, optional labels (with
// escaping), and a float value.
func parsePromSample(t *testing.T, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}, line: line}
	rest := line
	brace := strings.IndexByte(rest, '{')
	var nameEnd int
	if brace >= 0 {
		nameEnd = brace
	} else {
		nameEnd = strings.IndexByte(rest, ' ')
		if nameEnd < 0 {
			t.Fatalf("no value on sample line %q", line)
		}
	}
	s.name = rest[:nameEnd]
	if !promNameRe.MatchString(s.name) {
		t.Fatalf("illegal metric name %q in %q", s.name, line)
	}
	rest = rest[nameEnd:]
	if brace >= 0 {
		end := strings.LastIndexByte(rest, '}')
		if end < 0 {
			t.Fatalf("unterminated label set in %q", line)
		}
		parseLabels(t, line, rest[1:end], s.labels)
		rest = rest[end+1:]
	}
	rest = strings.TrimPrefix(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		t.Fatalf("sample line %q has %d value/timestamp fields", line, len(fields))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatalf("unparseable value in %q: %v", line, err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			t.Fatalf("unparseable timestamp in %q: %v", line, err)
		}
	}
	s.value = v
	return s
}

// parseLabels validates label syntax and escape sequences: values are
// double-quoted with only \\, \", and \n escapes legal.
func parseLabels(t *testing.T, line, body string, out map[string]string) {
	t.Helper()
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			t.Fatalf("label without '=' in %q", line)
		}
		name := body[i : i+eq]
		if !promLabelRe.MatchString(name) {
			t.Fatalf("illegal label name %q in %q", name, line)
		}
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			t.Fatalf("unquoted label value in %q", line)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(body) {
			c := body[i]
			if c == '\\' {
				if i+1 >= len(body) {
					t.Fatalf("dangling escape in %q", line)
				}
				esc := body[i+1]
				switch esc {
				case '\\', '"':
					val.WriteByte(esc)
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("illegal escape \\%c in %q", esc, line)
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			t.Fatalf("unterminated label value in %q", line)
		}
		if _, dup := out[name]; dup {
			t.Fatalf("duplicate label %q in %q", name, line)
		}
		out[name] = val.String()
		if i < len(body) {
			if body[i] != ',' {
				t.Fatalf("garbage after label value in %q", line)
			}
			i++
		}
	}
}

// validatePromText runs every structural check over a full exposition.
func validatePromText(t *testing.T, text string) (map[string]string, map[string][]promSample) {
	t.Helper()
	types, samples := parsePromExposition(t, text)

	// No duplicate series anywhere: (name, labelset) is unique.
	seen := map[string]bool{}
	for _, fam := range samples {
		for _, s := range fam {
			key := s.name + "|" + labelKey(s.labels)
			if seen[key] {
				t.Fatalf("duplicate series %q", s.line)
			}
			seen[key] = true
		}
	}

	for fam, kind := range types {
		rows := samples[fam]
		if len(rows) == 0 {
			t.Fatalf("family %q declared but has no samples", fam)
		}
		switch kind {
		case "counter":
			if len(rows) != 1 || rows[0].name != fam {
				t.Fatalf("counter family %q rows %+v", fam, rows)
			}
			if rows[0].value < 0 {
				t.Fatalf("negative counter %q", rows[0].line)
			}
		case "gauge":
			for _, s := range rows {
				if s.name != fam {
					t.Fatalf("gauge family %q has sample %q", fam, s.name)
				}
			}
		case "histogram":
			validateHistogramFamily(t, fam, rows)
		}
	}
	return types, samples
}

func validateHistogramFamily(t *testing.T, fam string, rows []promSample) {
	t.Helper()
	var buckets []promSample
	var sum, count *promSample
	for i := range rows {
		s := rows[i]
		switch s.name {
		case fam + "_bucket":
			buckets = append(buckets, s)
		case fam + "_sum":
			sum = &rows[i]
		case fam + "_count":
			count = &rows[i]
		default:
			t.Fatalf("histogram %q has alien sample %q", fam, s.line)
		}
	}
	if sum == nil || count == nil || len(buckets) == 0 {
		t.Fatalf("histogram %q missing _sum/_count/_bucket", fam)
	}
	prevBound := math.Inf(-1)
	prevCum := int64(-1)
	for i, b := range buckets {
		le, ok := b.labels["le"]
		if !ok {
			t.Fatalf("bucket without le label: %q", b.line)
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("unparseable le=%q in %q: %v", le, b.line, err)
		}
		if bound <= prevBound {
			t.Fatalf("le bounds not ascending at %q (prev %v)", b.line, prevBound)
		}
		prevBound = bound
		cum := int64(b.value)
		if float64(cum) != b.value || cum < 0 {
			t.Fatalf("non-integral bucket count %q", b.line)
		}
		if cum < prevCum {
			t.Fatalf("bucket counts not cumulative at %q (prev %d)", b.line, prevCum)
		}
		prevCum = cum
		if i == len(buckets)-1 {
			if !math.IsInf(bound, 1) {
				t.Fatalf("histogram %q does not end with le=\"+Inf\"", fam)
			}
			if int64(count.value) != cum {
				t.Fatalf("histogram %q _count %v != +Inf bucket %d", fam, count.value, cum)
			}
		}
	}
}

func labelKey(labels map[string]string) string {
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		parts = append(parts, fmt.Sprintf("%s=%q", k, v))
	}
	// order-insensitive key
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j-1] > parts[j]; j-- {
			parts[j-1], parts[j] = parts[j], parts[j-1]
		}
	}
	return strings.Join(parts, ",")
}

func TestWritePrometheusConformance(t *testing.T) {
	r := NewRegistry()
	// Hostile names: dots, dashes, unicode, leading digit, uppercase.
	r.Add("serve.requests", 42)
	// The deepening outcomes: restarts, and closing passes that proved the
	// ground part complete or were undone.
	r.Add("chase.deepen_restarts", 1)
	r.Add("chase.closed", 5)
	r.Add("chase.closing_failed", 2)
	r.Add("weird-name.with–dash", 7)
	r.Add("9starts.with.digit", 1)
	r.SetGauge("repl.lag_seconds", 1.25)
	r.SetGauge("negative.gauge", -3.5)
	r.SetGauge("huge.gauge", 1.5e18)
	r.SetGauge("Ünicode.gauge", 2)
	for i := 0; i < 500; i++ {
		r.Observe("serve.latency_us", float64(i*13%9000))
	}
	r.Observe("tiny.hist", 0.5)
	r.Observe("overflow.hist", 5e13) // lands in the +Inf bucket

	var b strings.Builder
	r.WritePrometheus(&b)
	WriteBuildInfoProm(&b)
	types, samples := validatePromText(t, b.String())

	if types["serve_requests"] != "counter" || types["repl_lag_seconds"] != "gauge" ||
		types["serve_latency_us"] != "histogram" {
		t.Fatalf("family kinds = %v", types)
	}
	for _, name := range []string{"chase_deepen_restarts", "chase_closed", "chase_closing_failed"} {
		if types[name] != "counter" || len(samples[name]) != 1 {
			t.Fatalf("%s: kind %q, samples %v", name, types[name], samples[name])
		}
	}
	if types["triq_build_info"] != "gauge" {
		t.Fatal("build info family missing")
	}
	if got := samples["serve_requests"][0].value; got != 42 {
		t.Fatalf("serve_requests = %v", got)
	}
	// The overflow observation must be counted in +Inf (and only there).
	rows := samples["overflow_hist"]
	last := rows[len(rows)-3] // ... +Inf bucket, _sum, _count
	if last.name != "overflow_hist_bucket" || last.labels["le"] != "+Inf" || last.value != 1 {
		t.Fatalf("overflow +Inf bucket = %+v", last)
	}
}

func TestWritePrometheusHistogramCollisionGuard(t *testing.T) {
	r := NewRegistry()
	r.Observe("lat", 10)
	// Scalars that sanitize onto the histogram's derived series names must
	// be dropped rather than emitted as duplicate series.
	r.Add("lat.count", 99)
	r.Add("lat.sum", 98)
	r.SetGauge("lat.bucket", 97)
	r.Add("lat", 96) // collides with the base family name itself

	var b strings.Builder
	r.WritePrometheus(&b)
	text := b.String()
	types, samples := validatePromText(t, text)
	if types["lat"] != "histogram" {
		t.Fatalf("lat family = %q, want the histogram to win", types["lat"])
	}
	if got := samples["lat"][len(samples["lat"])-1].value; got != 1 {
		t.Fatalf("lat_count = %v, want the histogram's count", got)
	}
	if strings.Contains(text, " 99\n") || strings.Contains(text, " 96\n") {
		t.Fatalf("colliding scalar leaked into:\n%s", text)
	}
}

func TestWritePrometheusEmptyAndNil(t *testing.T) {
	var b strings.Builder
	var nilReg *Registry
	nilReg.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Fatalf("nil registry wrote %q", b.String())
	}
	NewRegistry().WritePrometheus(&b)
	if b.Len() != 0 {
		t.Fatalf("empty registry wrote %q", b.String())
	}
	// A histogram with zero observations is omitted entirely.
	r := NewRegistry()
	r.getHist("never.observed")
	r.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Fatalf("zero-count histogram wrote %q", b.String())
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"serve.latency_us": "serve_latency_us",
		"weird-name":       "weird_name",
		"9lives":           "_9lives",
		"a:b":              "a:b",
		"Ünicode":          "__nicode", // 2-byte rune → 2 underscores
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
		if got := PromName(in); !promNameRe.MatchString(got) {
			t.Errorf("PromName(%q) = %q is not a legal metric name", in, got)
		}
	}
}
