package main

import (
	"fmt"
	"math/rand"

	"musketeer"
	"musketeer/internal/relation"
)

// Every input the program sees is generated here from the run's seed. The
// generators return plain Go records, which the oracles read, plus the
// relations the program is given; the two are built from the same records
// and nothing else.

// lineItem and part are the TPC-H Q17 records.
type lineItem struct {
	partkey  int64
	quantity float64
	price    float64
}

type part struct {
	partkey   int64
	brand     string
	container string
}

// q17Data is one seeded TPC-H sample: lineitems over parts, stamped with
// the logical size of scale factor 100.
type q17Data struct {
	items []lineItem
	parts []part
}

var (
	q17Brands     = []string{"Brand#11", "Brand#12", "Brand#23", "Brand#34", "Brand#45"}
	q17Containers = []string{"SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PKG", "WRAP DRUM"}
)

// genQ17 draws nItems lineitems over nItems/50 parts. Quantities are whole
// numbers in [1, 50]; a quantity exactly at Q17's 0.2·avg threshold would
// make the answer depend on the last bit of a float average, so such ties
// are moved one unit up (the tie test is exact integer arithmetic).
func genQ17(seed int64, nItems int) *q17Data {
	r := rand.New(rand.NewSource(seed))
	nParts := nItems / 50
	if nParts < 8 {
		nParts = 8
	}
	d := &q17Data{}
	for i := 0; i < nParts; i++ {
		p := part{
			partkey:   int64(i),
			brand:     q17Brands[r.Intn(len(q17Brands))],
			container: q17Containers[r.Intn(len(q17Containers))],
		}
		if i == 0 {
			p.brand, p.container = "Brand#23", "MED BOX" // at least one target part
		}
		d.parts = append(d.parts, p)
	}
	for i := 0; i < nItems; i++ {
		q := float64(1 + r.Intn(50))
		d.items = append(d.items, lineItem{
			partkey:  int64(r.Intn(nParts)),
			quantity: q,
			price:    float64(int64(q*(900+float64(r.Intn(1100)))*100+float64(r.Intn(100)))) / 100,
		})
	}
	for {
		sum := map[int64]int64{}
		cnt := map[int64]int64{}
		for _, it := range d.items {
			sum[it.partkey] += int64(it.quantity)
			cnt[it.partkey]++
		}
		moved := false
		for i, it := range d.items {
			// quantity == 0.2·sum/cnt  ⇔  5·quantity·cnt == sum.
			if 5*int64(it.quantity)*cnt[it.partkey] == sum[it.partkey] {
				d.items[i].quantity++
				moved = true
			}
		}
		if !moved {
			return d
		}
	}
}

// relations converts the sample into the two staged tables, stamped at
// TPC-H scale factor 100 (lineitem ≈ 7.3 GB, part ≈ 230 MB).
func (d *q17Data) relations() (lineitem, parts *musketeer.Relation) {
	lineitem = musketeer.NewRelation("lineitem", q17LineitemSchema)
	for _, it := range d.items {
		lineitem.MustAppend(relation.Row{relation.Int(it.partkey), relation.Float(it.quantity), relation.Float(it.price)})
	}
	lineitem.LogicalBytes = 100 * 73e6
	parts = musketeer.NewRelation("part", q17PartSchema)
	for _, p := range d.parts {
		parts.MustAppend(relation.Row{relation.Int(p.partkey), relation.Str(p.brand), relation.Str(p.container)})
	}
	parts.LogicalBytes = 100 * 2.3e6
	return lineitem, parts
}

var (
	q17LineitemSchema = musketeer.NewSchema("partkey:int", "quantity:float", "extendedprice:float")
	q17PartSchema     = musketeer.NewSchema("partkey:int", "brand:string", "container:string")
)

// edge is one directed edge of the PageRank graph.
type edge struct{ src, dst int64 }

// graphData is a seeded power-law graph: out- and in-degrees both follow
// Zipf laws over independently shuffled vertex orders.
type graphData struct {
	vertices int
	edges    []edge
	degree   []int64 // out-degree per vertex
}

func genGraph(seed int64, vertices, edges int) *graphData {
	r := rand.New(rand.NewSource(seed))
	srcZ := rand.NewZipf(r, 1.2, 2, uint64(vertices-1))
	dstZ := rand.NewZipf(r, 1.1, 2, uint64(vertices-1))
	srcPerm, dstPerm := r.Perm(vertices), r.Perm(vertices)
	g := &graphData{vertices: vertices, degree: make([]int64, vertices)}
	for i := 0; i < edges; i++ {
		e := edge{src: int64(srcPerm[srcZ.Uint64()]), dst: int64(dstPerm[dstZ.Uint64()])}
		g.edges = append(g.edges, e)
		g.degree[e.src]++
	}
	return g
}

// relations converts the graph into the GAS program's tables: every vertex
// starts at rank 1; each edge carries its source's out-degree.
func (g *graphData) relations() (vertices, edges *musketeer.Relation) {
	vertices = musketeer.NewRelation("vertices", gasVertexSchema)
	for v := 0; v < g.vertices; v++ {
		vertices.MustAppend(relation.Row{relation.Int(int64(v)), relation.Float(1)})
	}
	edges = musketeer.NewRelation("edges", gasEdgeSchema)
	for _, e := range g.edges {
		edges.MustAppend(relation.Row{relation.Int(e.src), relation.Int(e.dst), relation.Int(g.degree[e.src])})
	}
	return vertices, edges
}

var (
	gasVertexSchema = musketeer.NewSchema("vertex:int", "vertex_value:float")
	gasEdgeSchema   = musketeer.NewSchema("src:int", "dst:int", "vertex_degree:int")
)

// tenantData is one serve tenant's small tables.
type tenantData struct {
	purchases  []purchase
	properties []property
	prices     map[int64]float64
	ratings    []rating
	movies     map[int64]int64 // movie -> year
}

type purchase struct {
	uid    int64
	region string
	value  float64
}

type property struct {
	id           int64
	street, town string
}

type rating struct {
	user, movie int64
	score       float64
}

var purchaseRegions = []string{"EU", "US", "APAC"}

// genTenant draws a tenant's tables; n sets the purchase and ratings row
// counts (a few hundred at full size).
func genTenant(seed int64, n int) *tenantData {
	r := rand.New(rand.NewSource(seed))
	d := &tenantData{prices: map[int64]float64{}, movies: map[int64]int64{}}
	users := n / 6
	if users < 4 {
		users = 4
	}
	for i := 0; i < n; i++ {
		d.purchases = append(d.purchases, purchase{
			uid:    int64(r.Intn(users)),
			region: purchaseRegions[r.Intn(len(purchaseRegions))],
			value:  float64(1+r.Intn(800)) / 4,
		})
	}
	for i := 0; i < n/2; i++ {
		d.properties = append(d.properties, property{
			id:     int64(i),
			street: fmt.Sprintf("street%d", r.Intn(12)),
			town:   fmt.Sprintf("town%d", r.Intn(4)),
		})
		if r.Intn(4) != 0 {
			d.prices[int64(i)] = float64(100000 + r.Intn(900000))
		}
	}
	const movies = 24
	for m := 0; m < movies; m++ {
		d.movies[int64(m)] = int64(1950 + r.Intn(70))
	}
	// Every user rates four distinct movies the recommend shape selects
	// and two it does not, so its join sizes do not vary with the seed.
	for u := 0; u < users; u++ {
		picks := append(r.Perm(16)[:4], 16+r.Intn(4), 20+r.Intn(4))
		for _, m := range picks {
			d.ratings = append(d.ratings, rating{user: int64(u), movie: int64(m), score: float64(1 + r.Intn(5))})
		}
	}
	return d
}

// tables returns the tenant's relations keyed by tenant-relative path.
func (d *tenantData) tables() map[string]*musketeer.Relation {
	pur := musketeer.NewRelation("purchases", purchaseSchema)
	for _, p := range d.purchases {
		pur.MustAppend(relation.Row{relation.Int(p.uid), relation.Str(p.region), relation.Float(p.value)})
	}
	props := musketeer.NewRelation("properties", propertySchema)
	for _, p := range d.properties {
		props.MustAppend(relation.Row{relation.Int(p.id), relation.Str(p.street), relation.Str(p.town)})
	}
	prices := musketeer.NewRelation("prices", priceSchema)
	for _, p := range d.properties {
		if v, ok := d.prices[p.id]; ok {
			prices.MustAppend(relation.Row{relation.Int(p.id), relation.Float(v)})
		}
	}
	rat := musketeer.NewRelation("ratings", ratingSchema)
	for _, x := range d.ratings {
		rat.MustAppend(relation.Row{relation.Int(x.user), relation.Int(x.movie), relation.Float(x.score)})
	}
	mov := musketeer.NewRelation("movies", movieSchema)
	for m := int64(0); m < int64(len(d.movies)); m++ {
		mov.MustAppend(relation.Row{relation.Int(m), relation.Int(d.movies[m])})
	}
	return map[string]*musketeer.Relation{
		"in/purchases": pur, "in/properties": props, "in/prices": prices,
		"in/ratings": rat, "in/movies": mov,
	}
}

var (
	purchaseSchema = musketeer.NewSchema("uid:int", "region:string", "value:float")
	propertySchema = musketeer.NewSchema("id:int", "street:string", "town:string")
	priceSchema    = musketeer.NewSchema("id:int", "price:float")
	ratingSchema   = musketeer.NewSchema("user:int", "movie:int", "rating:float")
	movieSchema    = musketeer.NewSchema("movie:int", "year:int")
)
