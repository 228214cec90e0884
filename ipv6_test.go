package confanon

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// The engine maps no IPv6 yet, so -strict must fail closed on it: the
// leak report flags every IPv6 address or prefix outside the special
// scopes, and a strict run quarantines the file instead of publishing
// it in cleartext. A lenient run still publishes it, and reports it.

const ipv6Config = "hostname r6\n" +
	"interface Ethernet0\n" +
	" ipv6 address 2620:0:861:1::1/64\n" +
	"ipv6 route 2620:0:861::/48 Null0\n"

// wantIPv6Leaks are the two public IPv6 tokens of ipv6Config, by line.
var wantIPv6Leaks = []string{"3 2620:0:861:1::1/64", "4 2620:0:861::/48"}

func ip6Leaks(leaks []Leak) []string {
	var out []string
	for _, l := range leaks {
		if l.Kind == "ip6" && !l.LikelyFalsePositive {
			out = append(out, fmt.Sprintf("%d %s", l.Line, l.Tok))
		}
	}
	return out
}

func TestStrictQuarantinesIPv6(t *testing.T) {
	files := map[string]string{"r6-confg": ipv6Config}
	for _, workers := range []int{1, 2} {
		res, err := ParallelCorpusContext(context.Background(),
			Options{Salt: []byte("x"), Strict: true}, files, workers)
		if err != nil {
			t.Fatal(err)
		}
		f := res.Files["r6-confg"]
		if f.Status != FileQuarantined {
			t.Fatalf("workers=%d: status %v, want quarantined", workers, f.Status)
		}
		if got := ip6Leaks(f.Leaks); !reflect.DeepEqual(got, wantIPv6Leaks) {
			t.Errorf("workers=%d: ip6 leaks %v, want %v", workers, got, wantIPv6Leaks)
		}
	}
}

func TestLenientReportsIPv6(t *testing.T) {
	a := New(Options{Salt: []byte("x")})
	res, err := a.CorpusContext(context.Background(), map[string]string{"r6-confg": ipv6Config})
	if err != nil {
		t.Fatal(err)
	}
	out, ok := res.Outputs()["r6-confg"]
	if !ok {
		t.Fatalf("lenient run withheld the file: %+v", res.Files["r6-confg"])
	}
	if got := ip6Leaks(a.Leaks(map[string]string{"r6-confg": out})); !reflect.DeepEqual(got, wantIPv6Leaks) {
		t.Errorf("ip6 leaks %v, want %v", got, wantIPv6Leaks)
	}
}

// TestSpecialIPv6NotFlagged: loopback, unspecified, link-local,
// multicast and documentation addresses identify no network, and
// colon-bearing tokens that are not IPv6 (MACs, times, communities,
// large communities) are not parsed as such.
func TestSpecialIPv6NotFlagged(t *testing.T) {
	text := "ipv6 address fe80::1 link-local\n" +
		"ipv6 route ::/0 2001:db8::1\n" +
		"ipv6 host lo ::1\n" +
		"ipv6 mld join-group ff02::1:ff00:1\n" +
		"ipv6 address 2001:db8:0:1::/64;\n" +
		"mac aa:bb:cc:dd:ee:ff\n" +
		"clock 12:34:56\n" +
		"set community 701:100\n" +
		"set large-community 2914:100:200\n"
	a := New(Options{Salt: []byte("x")})
	if got := ip6Leaks(a.Leaks(map[string]string{"f": text})); len(got) != 0 {
		t.Errorf("special or non-IPv6 tokens flagged: %v", got)
	}
}
