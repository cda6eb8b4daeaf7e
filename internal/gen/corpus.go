package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/tagstore"
)

// Dataset bundles a social graph with its tagging store.
type Dataset struct {
	Name  string
	Graph *graph.Graph
	Store *tagstore.Store
}

// CorpusParams configures corpus generation. Tag and item popularity are
// Zipf-distributed; Homophily controls how often a user's tagging action
// copies an item already tagged by one of their friends (the social
// correlation personalized search exploits).
type CorpusParams struct {
	Name     string
	Graph    GraphParams
	NumItems int
	NumTags  int
	// TriplesPerUser is the mean number of tagging actions per user.
	TriplesPerUser int
	// TagZipfS and ItemZipfS are the Zipf exponents (> 1).
	TagZipfS  float64
	ItemZipfS float64
	// Homophily ∈ [0,1]: probability a tagging action reuses an item a
	// friend already tagged.
	Homophily float64
}

func (p CorpusParams) validate() error {
	if err := p.Graph.validate(); err != nil {
		return err
	}
	if p.NumItems < 1 || p.NumTags < 1 {
		return fmt.Errorf("gen: items %d / tags %d must be >= 1", p.NumItems, p.NumTags)
	}
	if p.TriplesPerUser < 0 {
		return fmt.Errorf("gen: TriplesPerUser %d negative", p.TriplesPerUser)
	}
	if p.TagZipfS <= 1 || p.ItemZipfS <= 1 {
		return fmt.Errorf("gen: zipf exponents (%g, %g) must be > 1", p.TagZipfS, p.ItemZipfS)
	}
	if p.Homophily < 0 || p.Homophily > 1 {
		return fmt.Errorf("gen: homophily %g outside [0,1]", p.Homophily)
	}
	return nil
}

// Generate builds a corpus deterministically from the seed.
func Generate(p CorpusParams, seed int64) (*Dataset, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	g, err := NewGraph(p.Graph, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	tagZ := rand.NewZipf(rng, p.TagZipfS, 1, uint64(p.NumTags-1))
	itemZ := rand.NewZipf(rng, p.ItemZipfS, 1, uint64(p.NumItems-1))

	n := p.Graph.NumUsers
	b := tagstore.NewBuilder(n, p.NumItems, p.NumTags)
	// Users draw TriplesPerUser triples on average, and the total strays
	// from n times that by about √n·TriplesPerUser/3.5: from the 2,000
	// users of scale 1 up, a 1/32 margin is over four standard deviations,
	// so the builder does not regrow.
	want := n * p.TriplesPerUser
	b.Grow(want + want/32)
	// userItems[u] collects items u has tagged, the pool friends copy
	// from. Users are processed in id order; homophily copies look at
	// already-processed friends, which suffices to correlate
	// neighbourhoods.
	userItems := make([][]tagstore.ItemID, n)
	for u := 0; u < n; u++ {
		// Per-user count: mean TriplesPerUser, jittered ±50%.
		count := p.TriplesPerUser
		if count > 0 {
			count = count/2 + rng.Intn(count+1)
		}
		nbrs, _ := g.Neighbors(graph.UserID(u))
		for a := 0; a < count; a++ {
			var item tagstore.ItemID
			copied := false
			if p.Homophily > 0 && len(nbrs) > 0 && rng.Float64() < p.Homophily {
				f := nbrs[rng.Intn(len(nbrs))]
				if pool := userItems[f]; len(pool) > 0 {
					item = pool[rng.Intn(len(pool))]
					copied = true
				}
			}
			if !copied {
				item = tagstore.ItemID(itemZ.Uint64())
			}
			tag := tagstore.TagID(tagZ.Uint64())
			b.Add(int32(u), item, tag)
			userItems[u] = append(userItems[u], item)
		}
	}
	store, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: p.Name, Graph: g, Store: store}, nil
}

// Scale multiplies the user/item/tag universe of a parameter preset.
// scale = 1 keeps the preset; 2 doubles every universe dimension.
func (p CorpusParams) Scale(scale float64) CorpusParams {
	if scale <= 0 {
		scale = 1
	}
	q := p
	q.Graph.NumUsers = max(1, int(float64(p.Graph.NumUsers)*scale))
	q.NumItems = max(1, int(float64(p.NumItems)*scale))
	q.NumTags = max(1, int(float64(p.NumTags)*scale))
	return q
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// DeliciousParams is the bookmark-site-shaped preset: scale-free graph,
// heavy tagging, strong homophily (people bookmark what friends
// bookmark).
func DeliciousParams() CorpusParams {
	return CorpusParams{
		Name: "delicious-like",
		Graph: GraphParams{
			Kind: BarabasiAlbert, NumUsers: 2000, M: 7,
			MinWeight: 0.2, MaxWeight: 0.8,
		},
		NumItems:       8000,
		NumTags:        1200,
		TriplesPerUser: 110,
		TagZipfS:       1.07,
		ItemZipfS:      1.1,
		Homophily:      0.5,
	}
}

// FlickrParams is the photo-site-shaped preset: small-world graph with
// high clustering, larger item universe, lighter tagging.
func FlickrParams() CorpusParams {
	return CorpusParams{
		Name: "flickr-like",
		Graph: GraphParams{
			Kind: WattsStrogatz, NumUsers: 2000, K: 8, P: 0.1,
			MinWeight: 0.2, MaxWeight: 0.8,
		},
		NumItems:       16000,
		NumTags:        800,
		TriplesPerUser: 60,
		TagZipfS:       1.15,
		ItemZipfS:      1.05,
		Homophily:      0.35,
	}
}

// TwitterParams is the microblog-shaped preset: dense hub-heavy
// scale-free graph with bursty tagging of few hot items.
func TwitterParams() CorpusParams {
	return CorpusParams{
		Name: "twitter-like",
		Graph: GraphParams{
			Kind: BarabasiAlbert, NumUsers: 2000, M: 14,
			MinWeight: 0.15, MaxWeight: 0.7,
		},
		NumItems:       4000,
		NumTags:        600,
		TriplesPerUser: 80,
		TagZipfS:       1.25,
		ItemZipfS:      1.3,
		Homophily:      0.25,
	}
}

// Presets returns the three standard corpora presets.
func Presets() []CorpusParams {
	return []CorpusParams{DeliciousParams(), FlickrParams(), TwitterParams()}
}
