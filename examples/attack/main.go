// Attack: the §6 security evaluation. Over a population of networks,
// measure (a) that the subnet-size and peering fingerprints survive
// anonymization exactly (the attack premise), (b) how well a
// distance-matching attacker re-identifies anonymized corpora against
// the population (the open question the paper leaves to experiment),
// and (c) how many networks carry internal compartmentalization that
// would defeat insider probing.
//
// The scoring is the shared internal/bench privacy suite — the same
// code the confbench CI gate runs — so this walkthrough and the
// benchmark cannot diverge.
//
//	go run ./examples/attack
package main

import (
	"context"
	"fmt"
	"log"

	"confanon"
	"confanon/internal/bench"
	"confanon/internal/fingerprint"
	"confanon/internal/netgen"
	"confanon/internal/validate"
)

func main() {
	const population = 31
	arts := make([]bench.NetworkArtifacts, 0, population)
	compartmentalized := 0

	for i := 0; i < population; i++ {
		kind := netgen.Backbone
		if i%2 == 1 {
			kind = netgen.Enterprise
		}
		n := netgen.Generate(netgen.Params{
			Seed: int64(7000 + i), Kind: kind,
			Compartmentalized: i%3 == 1, // ~10 of 31 per the paper
		})
		pre := n.RenderAll()
		a := confanon.New(confanon.Options{Salt: []byte(n.Salt)})
		res, err := a.CorpusContext(context.Background(), pre)
		if err != nil || !res.Ok() {
			log.Fatalf("anonymizing network %d: %v %v", i, err, res.Failed())
		}
		post := res.Outputs()

		postCfg := validate.ParseAll(post)
		art := bench.NetworkArtifacts{
			Pre:      validate.ParseAll(pre),
			Post:     postCfg,
			Identity: n.IdentityTokens(),
		}
		for _, text := range post {
			art.PostText = append(art.PostText, text)
		}
		arts = append(arts, art)
		if fingerprint.Compartmentalized(postCfg) {
			compartmentalized++
		}
	}

	priv := bench.PrivacyOf(arts, 5)
	util := bench.UtilityOf(arts)

	// (a) The attacker sees the anonymized configs; the fingerprint he
	// computes equals the one of the real network.
	fmt.Printf("fingerprints preserved by anonymization: subnet %.0f%%, peering %.0f%% of %d networks\n\n",
		priv.SubnetMatchPct, priv.PeeringMatchPct, population)

	fmt.Println("re-identification by fingerprint distance (attacker knows the population):")
	fmt.Printf("  subnet size:    top-1 %5.1f%%  top-5 %5.1f%%  (%.2f bits, %.0f%% unique)\n",
		priv.SubnetTop1Pct, priv.SubnetTopKPct, priv.SubnetEntropyBits, priv.SubnetUniquePct)
	fmt.Printf("  peering:        top-1 %5.1f%%  top-5 %5.1f%%  (%.2f bits, %.0f%% unique)\n",
		priv.PeeringTop1Pct, priv.PeeringTopKPct, priv.PeeringEntropyBits, priv.PeeringUniquePct)
	fmt.Printf("  both combined:  top-1 %5.1f%%  top-5 %5.1f%%\n",
		priv.CombinedTop1Pct, priv.CombinedTopKPct)

	fmt.Printf("\ninterpretation: with %.0f%% of subnet fingerprints unique, an attacker who\n",
		priv.SubnetUniquePct)
	fmt.Println("could measure subnet structure externally would identify most networks —")
	fmt.Println("the paper's conjectured risk. Peering fingerprints are coarser; edge")
	fmt.Println("networks hide in larger anonymity sets.")

	fmt.Printf("\nidentity tokens leaked into anonymized output: %.0f%% of networks\n",
		priv.IdentityLeakPct)
	fmt.Printf("routing design preserved (the §5 utility bargain): %.0f%% of networks\n",
		util.DesignEquivPct)
	fmt.Printf("insider-resistant (NAT/probe-filter compartmentalization): %d/%d networks\n",
		compartmentalized, population)
}
