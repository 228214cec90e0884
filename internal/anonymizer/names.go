package anonymizer

import (
	"confanon/internal/token"
)

// Name-position entries. §4.1's basic method "anonymizes the names of
// class-maps, route-maps, and any other strings that could hold privileged
// information" — and a name must be hashed even when its words happen to
// appear in the pass-list: a route map called "LEVEL3-import" leaks a peer
// identity although "level" is an ordinary IOS keyword. Positions that
// syntactically hold a user-chosen identifier are therefore hashed as
// whole tokens, bypassing segmentation and the pass-list. Numbered
// references (ACL and list numbers) are local identifiers and stay.
//
// These entries share the extension RuleID RuleNamePosition — they are
// not one of the paper's 28 numbered rules, but the inventory instruments
// them identically.

// forceHashName hashes a user-chosen identifier; integers pass through.
func (a *Anonymizer) forceHashName(w string) string {
	if token.IsInteger(w) {
		return w
	}
	return a.forceHash(w)
}

// nameEntry builds a name-position entry: match decides, rewrite edits
// the words in place; the entry then hits RuleNamePosition and rejoins.
// Trigger keys live in the canonical pack document, not here.
func nameEntry(name string, match func(words []string) bool, rewrite func(a *Anonymizer, words []string)) *lineRule {
	return &lineRule{id: RuleNamePosition, name: name,
		apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
			if !match(c.words) {
				return "", false, false
			}
			a.hit(RuleNamePosition)
			rewrite(a, c.words)
			return token.Join(c.words, c.gaps), true, true
		}}
}

var nameLineRules = []*lineRule{
	// route-map NAME [permit|deny [seq]]
	nameEntry("route-map-def",
		func(w []string) bool { return len(w) >= 2 },
		func(a *Anonymizer, w []string) { w[1] = a.forceHashName(w[1]) }),

	// neighbor A route-map NAME in|out
	nameEntry("neighbor-route-map",
		func(w []string) bool { return len(w) >= 4 && w[2] == "route-map" },
		func(a *Anonymizer, w []string) {
			a.mapNeighborToken(&w[1])
			w[3] = a.forceHashName(w[3])
		}),

	// neighbor A peer-group NAME
	nameEntry("neighbor-peer-group-ref",
		func(w []string) bool { return len(w) >= 4 && w[2] == "peer-group" },
		func(a *Anonymizer, w []string) {
			a.mapNeighborToken(&w[1])
			w[3] = a.forceHashName(w[3])
		}),

	// neighbor NAME peer-group (definition form)
	nameEntry("neighbor-peer-group-def",
		func(w []string) bool { return len(w) == 3 && w[2] == "peer-group" },
		func(a *Anonymizer, w []string) { w[1] = a.forceHashName(w[1]) }),

	// neighbor A prefix-list NAME in|out (filter/distribute lists are
	// usually numbered; names hash, numbers stay)
	nameEntry("neighbor-filter-ref",
		func(w []string) bool {
			return len(w) >= 4 && (w[2] == "prefix-list" || w[2] == "filter-list" || w[2] == "distribute-list")
		},
		func(a *Anonymizer, w []string) {
			a.mapNeighborToken(&w[1])
			w[3] = a.forceHashName(w[3])
		}),

	// ip vrf NAME (definition)
	nameEntry("vrf-def",
		func(w []string) bool { return len(w) == 3 && w[1] == "vrf" },
		func(a *Anonymizer, w []string) { w[2] = a.forceHashName(w[2]) }),

	// ip vrf forwarding NAME (interface reference)
	nameEntry("vrf-forwarding",
		func(w []string) bool { return len(w) >= 4 && w[1] == "vrf" && w[2] == "forwarding" },
		func(a *Anonymizer, w []string) { w[3] = a.forceHashName(w[3]) }),

	// ip nat pool NAME lo hi netmask M
	nameEntry("nat-pool",
		func(w []string) bool { return len(w) >= 5 && w[1] == "nat" && w[2] == "pool" },
		func(a *Anonymizer, w []string) {
			w[3] = a.forceHashName(w[3])
			a.genericWords(w[4:], nil)
		}),

	// aaa group server tacacs+|radius NAME
	nameEntry("aaa-group-server",
		func(w []string) bool { return len(w) >= 5 && w[1] == "group" && w[2] == "server" },
		func(a *Anonymizer, w []string) { w[4] = a.forceHashName(w[4]) }),

	// ip prefix-list NAME seq N permit A/L [ge|le N]
	nameEntry("prefix-list-def",
		func(w []string) bool { return len(w) >= 3 && w[1] == "prefix-list" },
		func(a *Anonymizer, w []string) {
			w[2] = a.forceHashName(w[2])
			a.genericWords(w[3:], nil)
		}),

	// match ip address prefix-list NAME...
	nameEntry("match-prefix-list",
		func(w []string) bool {
			return len(w) >= 4 && w[1] == "ip" && w[2] == "address" && w[3] == "prefix-list"
		},
		func(a *Anonymizer, w []string) {
			for i := 4; i < len(w); i++ {
				w[i] = a.forceHashName(w[i])
			}
		}),

	// class-map [match-any|match-all] NAME / policy-map NAME
	nameEntry("class-policy-map",
		func(w []string) bool { return len(w) >= 2 },
		func(a *Anonymizer, w []string) { w[len(w)-1] = a.forceHashName(w[len(w)-1]) }),

	// class NAME (inside policy-map)
	nameEntry("class-ref",
		func(w []string) bool { return len(w) == 2 },
		func(a *Anonymizer, w []string) { w[1] = a.forceHashName(w[1]) }),

	// service-policy [input|output] NAME
	nameEntry("service-policy",
		func(w []string) bool { return len(w) >= 2 },
		func(a *Anonymizer, w []string) { w[len(w)-1] = a.forceHashName(w[len(w)-1]) }),
}

// mapNeighborToken maps the neighbor reference in the word slot w: an
// address maps through the IP tree; a peer-group name hashes.
func (a *Anonymizer) mapNeighborToken(w *string) {
	if v, ok := token.ParseIPv4(*w); ok {
		a.mapIP(w, RuleBareAddr, v, -1)
		return
	}
	*w = a.forceHashName(*w)
}
