package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Sample is one exposed series value, flattened for run reports.
// Histograms expand into their _sum/_count/_bucket derivatives before
// sampling, so Value is always a plain number.
type Sample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// ID returns the series identity in Prometheus notation,
// name{k1="v1",k2="v2"} with label keys sorted, or the bare name when
// unlabeled. Two samples agree across exposition paths iff their IDs and
// values agree; the run-report/portal equality test keys on this.
func (s Sample) ID() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(s.Labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Snapshot returns every series (histograms expanded) sorted by ID.
func (r *Registry) Snapshot() []Sample {
	snap := r.snapshot()
	sort.Slice(snap, func(i, j int) bool { return snap[i].id < snap[j].id })
	out := make([]Sample, len(snap))
	for i, s := range snap {
		out[i] = s.Sample
	}
	return out
}

// Counters flattens the snapshot into an ID → value map, the form the
// RunReport embeds and the integration tests compare against a portal
// scrape.
func (r *Registry) Counters() map[string]float64 {
	snap := r.snapshot()
	m := make(map[string]float64, len(snap))
	for _, s := range snap {
		m[s.id] = s.Value
	}
	return m
}

// idSample is a Sample with its ID computed once.
type idSample struct {
	id string
	Sample
}

// snapshot samples every series, in no particular order.
func (r *Registry) snapshot() []idSample {
	added := r.collect()
	var out []idSample
	for _, f := range r.sortedFamilies() {
		keys := f.labelKeys
		for _, s := range f.sortedSeries() {
			put := func(name string, v float64, extra ...string) {
				smp := Sample{Name: name, Value: v}
				if len(keys) > 0 || len(extra) > 0 {
					smp.Labels = make(map[string]string, len(keys)+len(extra)/2)
					for i, k := range keys {
						smp.Labels[k] = s.labelVals[i]
					}
					for i := 0; i+1 < len(extra); i += 2 {
						smp.Labels[extra[i]] = extra[i+1]
					}
				}
				out = append(out, idSample{smp.ID(), smp})
			}
			switch {
			case s.c != nil:
				put(f.name, float64(s.c.Value()+added[s.c]))
			case s.g != nil:
				put(f.name, float64(s.g.Value()))
			case s.h != nil:
				cum := int64(0)
				for i, b := range s.h.bounds {
					cum += s.h.counts[i].Load()
					put(f.name+"_bucket", float64(cum), "le", formatFloat(b))
				}
				put(f.name+"_bucket", float64(s.h.Count()), "le", "+Inf")
				put(f.name+"_sum", s.h.Sum())
				put(f.name+"_count", float64(s.h.Count()))
			}
		}
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	added := r.collect()
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			if err := writeSeries(w, f, s, added); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series, added map[*Counter]int64) error {
	lbl := func(extra ...string) string { return renderLabels(f.labelKeys, s.labelVals, extra) }
	switch {
	case s.c != nil:
		if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, lbl(), s.c.Value()+added[s.c]); err != nil {
			return err
		}
		if ex := s.c.Exemplar(); ex != "" {
			// A comment line: Prometheus 0.0.4 consumers and ParseText
			// skip it, scrape-debugging humans get the context.
			if _, err := fmt.Fprintf(w, "# exemplar %s%s %s\n", f.name, lbl(), escapeHelp(ex)); err != nil {
				return err
			}
		}
		return nil
	case s.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, lbl(), s.g.Value())
		return err
	case s.h != nil:
		cum := int64(0)
		for i, b := range s.h.bounds {
			cum += s.h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, lbl("le", formatFloat(b)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, lbl("le", "+Inf"), s.h.Count()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, lbl(), formatFloat(s.h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, lbl(), s.h.Count())
		return err
	}
	return nil
}

// renderLabels formats {k1="v1",...} from parallel key/value slices plus
// inline extra pairs; empty when there are no labels at all.
func renderLabels(keys, vals, extra []string) string {
	if len(keys) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	n := 0
	put := func(k, v string) {
		if n > 0 {
			b.WriteByte(',')
		}
		n++
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	for i, k := range keys {
		put(k, vals[i])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		put(extra[i], extra[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// Handler returns an http.Handler serving the text exposition, for
// mounting at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// ParseText parses a Prometheus text exposition (as produced by
// WritePrometheus) back into an ID → value map, each ID in Sample.ID's
// form (label keys sorted), so scrape-side and report-side identities
// compare equal whatever the emission order. It exists for the
// integration test that scrapes the portal and compares against a
// RunReport; it handles only the subset this package emits.
func ParseText(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: unparsable line %q", line)
		}
		id, valStr := line[:sp], line[sp+1:]
		var v float64
		if valStr == "+Inf" {
			v = math.Inf(1)
		} else {
			var err error
			v, err = strconv.ParseFloat(valStr, 64)
			if err != nil {
				return nil, fmt.Errorf("metrics: bad value in %q: %v", line, err)
			}
		}
		name, labels := SplitSeries(id)
		out[Sample{Name: name, Labels: labels}.ID()] = v
	}
	return out, nil
}

// SplitSeries splits a series identity in Prometheus notation —
// name{k1="v1",k2="v2"}, as Sample.ID and the text exposition write it —
// into its name and its labels, values unescaped (labels nil for a bare
// name). It reads the subset this package emits.
func SplitSeries(id string) (name string, labels map[string]string) {
	open := strings.IndexByte(id, '{')
	if open < 0 || !strings.HasSuffix(id, "}") {
		return id, nil
	}
	labels = map[string]string{}
	body := id[open+1 : len(id)-1]
	for body != "" {
		key, rest, ok := strings.Cut(body, `="`)
		if !ok {
			break
		}
		var val strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				if c = rest[i]; c == 'n' {
					c = '\n'
				}
			}
			val.WriteByte(c)
		}
		labels[key] = val.String()
		body = strings.TrimPrefix(rest[min(i+1, len(rest)):], ",")
	}
	return id[:open], labels
}
