package metrics

import "testing"

// TestSplitSeries: SplitSeries reads back the identities Sample.ID and
// the text exposition write, escapes included.
func TestSplitSeries(t *testing.T) {
	for _, tc := range []struct {
		id, name string
		labels   map[string]string
	}{
		{"confanon_lines_total", "confanon_lines_total", nil},
		{`confanon_rule_hits_total{rule="I1-address-netmask-pair"}`,
			"confanon_rule_hits_total", map[string]string{"rule": "I1-address-netmask-pair"}},
		{`confanon_leaks_total{kind="asn",severity="confirmed"}`,
			"confanon_leaks_total", map[string]string{"kind": "asn", "severity": "confirmed"}},
		{`x{k="a\"b"}`, "x", map[string]string{"k": `a"b`}},
		{`x{k="a,b\\c\nd",le="+Inf"}`, "x", map[string]string{"k": "a,b\\c\nd", "le": "+Inf"}},
	} {
		name, labels := SplitSeries(tc.id)
		if name != tc.name {
			t.Errorf("SplitSeries(%q) name = %q, want %q", tc.id, name, tc.name)
		}
		if len(labels) != len(tc.labels) {
			t.Errorf("SplitSeries(%q) labels = %v, want %v", tc.id, labels, tc.labels)
			continue
		}
		for k, v := range tc.labels {
			if labels[k] != v {
				t.Errorf("SplitSeries(%q) label %s = %q, want %q", tc.id, k, labels[k], v)
			}
		}
	}
}
