package experiments

import (
	"fmt"

	"confanon/internal/fingerprint"
	"confanon/internal/junos"
	"confanon/internal/netgen"
	"confanon/internal/validate"
)

// E10Result exercises the paper's footnote 2 — "the techniques are
// directly applicable to JunOS and other router configuration languages"
// — end to end: the same networks rendered in the JunOS dialect are
// anonymized, parsed back, and must pass both validation suites; and the
// design-relevant structure recovered from the JunOS rendering must agree
// with the structure of the IOS rendering of the same network.
type E10Result struct {
	Networks        int
	Suite1Passed    int
	Suite2Passed    int
	CrossDialectEq  int // networks whose subnet fingerprint matches across dialects
	EBGPStructureEq int // networks whose eBGP session multiset matches across dialects
}

// String renders the summary row.
func (r E10Result) String() string {
	return fmt.Sprintf("E10 JunOS: %d networks — suite1 %d/%d, suite2 %d/%d; cross-dialect subnet fingerprints equal %d/%d, eBGP structure equal %d/%d (paper: techniques 'directly applicable to JunOS')",
		r.Networks, r.Suite1Passed, r.Networks, r.Suite2Passed, r.Networks,
		r.CrossDialectEq, r.Networks, r.EBGPStructureEq, r.Networks)
}

// E10JunOS runs the JunOS pipeline over a population.
func E10JunOS(networks int) E10Result {
	if networks <= 0 {
		networks = 10
	}
	res := E10Result{Networks: networks}
	for i := 0; i < networks; i++ {
		kind := netgen.Backbone
		if i%2 == 1 {
			kind = netgen.Enterprise
		}
		n := netgen.Generate(netgen.Params{
			Seed: int64(11000 + i), Kind: kind, Routers: 10 + i,
			UseASPathAlternation: i%3 == 0,
			UseCommunityRegexps:  i%4 == 0,
		})

		// JunOS rendering of every router.
		junosFiles := make(map[string]string, len(n.Routers))
		iosFiles := make(map[string]string, len(n.Routers))
		for _, r := range n.Routers {
			junosFiles[r.Config.Hostname+"-junos"] = junos.Render(r.Config)
			iosFiles[r.Config.Hostname+"-confg"] = r.Config.Render()
		}

		// Anonymize the JunOS corpus and run the suites.
		_, run := anonymizeCorpus(n.Salt, junosFiles)
		post := run.Outputs()
		pre := validate.ParseAll(junosFiles)
		anon := validate.ParseAll(post)
		if len(validate.Suite1(pre, anon)) == 0 {
			res.Suite1Passed++
		}
		if validate.Suite2(pre, anon).OK() {
			res.Suite2Passed++
		}

		// Cross-dialect structural agreement on the un-anonymized data.
		iosPre := validate.ParseAll(iosFiles)
		if fingerprint.SubnetOf(iosPre).Key() == fingerprint.SubnetOf(pre).Key() {
			res.CrossDialectEq++
		}
		if fingerprint.PeeringOf(iosPre).Key() == fingerprint.PeeringOf(pre).Key() {
			res.EBGPStructureEq++
		}
	}
	return res
}
