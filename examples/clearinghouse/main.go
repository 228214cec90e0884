// Clearinghouse: the full §7 single-blind workflow against a live portal.
// A network owner generates and anonymizes a network, the portal screens
// the upload (a deliberately raw upload is rejected first), a researcher
// lists and fetches the data and extracts the routing design from it, and
// the two sides exchange comments through the blinding relay.
//
//	go run ./examples/clearinghouse
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"confanon"
	"confanon/internal/netgen"
	"confanon/internal/portal"
	"confanon/internal/routing"
	"confanon/internal/validate"
)

func main() {
	// The portal, as it would run via cmd/confportal.
	store := portal.NewStore()
	store.AddResearcher("key-r1", "researcher-one")
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()
	fmt.Println("portal listening at", srv.URL)

	// --- Owner side ---------------------------------------------------
	n := netgen.Generate(netgen.Params{Seed: 99, Kind: netgen.Backbone, Routers: 12})
	raw := n.RenderAll()

	// A careless upload of raw configs is rejected by the screen.
	fmt.Println("\nowner uploads RAW configs (mistake):")
	status, body := post(srv.URL+"/datasets", map[string]interface{}{
		"label": "backbone, 12 routers", "files": raw,
	}, "")
	fmt.Printf("  portal says %d: %.120s...\n", status, body)

	// Anonymize properly (hashed file names too), then upload.
	a := confanon.New(confanon.Options{Salt: []byte(n.Salt)})
	res, err := a.CorpusContext(context.Background(), raw)
	if err != nil || !res.Ok() {
		log.Fatalf("anonymizing: %v %v", err, res.Failed())
	}
	post1 := res.Outputs()
	anon := make(map[string]string, len(post1))
	for name, text := range post1 {
		anon[a.RenameFile(name)] = text
	}
	fmt.Println("\nowner uploads ANONYMIZED configs:")
	status, body = post(srv.URL+"/datasets", map[string]interface{}{
		"label": "backbone, 12 routers", "files": anon,
	}, "")
	fmt.Printf("  portal says %d\n", status)
	var up struct {
		ID         string `json:"id"`
		OwnerToken string `json:"owner_token"`
	}
	_ = json.Unmarshal([]byte(body), &up)

	// --- Researcher side ----------------------------------------------
	fmt.Println("\nresearcher browses:")
	_, body = get(srv.URL+"/datasets", "key-r1")
	fmt.Printf("  datasets: %.100s...\n", body)
	_, body = get(srv.URL+"/datasets/"+up.ID+"/files", "key-r1")
	var names []string
	_ = json.Unmarshal([]byte(body), &names)
	fmt.Printf("  %d files, e.g. %s\n", len(names), names[0])

	// Fetch everything and extract the routing design — the §5 analysis a
	// researcher would actually run on the released data.
	files := make(map[string]string, len(names))
	for _, name := range names {
		_, text := get(srv.URL+"/datasets/"+up.ID+"/files/"+name, "key-r1")
		files[name] = text
	}
	design := routing.Extract(validate.ParseAll(files))
	fmt.Println("  extracted design:", design.Summary())

	// --- Blind correspondence ------------------------------------------
	post(srv.URL+"/datasets/"+up.ID+"/comments",
		map[string]interface{}{"text": "are the per-pop OSPF areas intentional?"}, "key-r1")
	post(srv.URL+"/datasets/"+up.ID+"/comments",
		map[string]interface{}{"text": "yes - one stub area per pop", "owner_token": up.OwnerToken}, "")
	_, body = get(srv.URL+"/datasets/"+up.ID+"/comments", "key-r1")
	fmt.Println("\nblind comment thread (no identities cross the relay):")
	var thread []portal.Comment
	_ = json.Unmarshal([]byte(body), &thread)
	for _, c := range thread {
		fmt.Printf("  [%s] %s\n", c.From, c.Text)
	}
}

func post(url string, v interface{}, apiKey string) (int, string) {
	b, _ := json.Marshal(v)
	req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

func get(url, apiKey string) (int, string) {
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}
