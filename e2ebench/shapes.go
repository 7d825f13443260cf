package main

import (
	"fmt"
	"strings"

	"musketeer"
)

// serveShape is one workflow of the serve-churn mix. Every shape carries
// one literal that is varied to make a fresh variant: it only scales an
// output column (or bounds a filter every row passes), so a variant changes
// the canonical plan key without changing selectivities or calibration.
//
// The tenant data are dyadic (integers and quarters), so every sum and
// product the shapes compute is exact in any order, and the oracles can
// reproduce selections such as "total >= best" bit for bit.
type serveShape struct {
	name     string
	frontend string
	output   string
	source   func(lit float64) string
	// tables lists the catalog entries the shape reads.
	tables []string
	// lit maps a variant number to the shape's literal.
	lit    func(k int) float64
	expect func(d *tenantData, lit float64) []expRow
	// cols are the output columns compared, in expRow order; keyCols of
	// them compare exactly, the rest within tolerance.
	cols    []string
	keyCols int
}

// expRow is one expected output row: exact key columns, then float values.
type expRow struct {
	keys []string
	vals []float64
}

// catalogSpecs are the tenant tables as the serve API's catalog names them.
var catalogSpecs = map[string]musketeer.TableSpec{
	"purchases":  {Path: "in/purchases", Schema: []string{"uid:int", "region:string", "value:float"}},
	"properties": {Path: "in/properties", Schema: []string{"id:int", "street:string", "town:string"}},
	"prices":     {Path: "in/prices", Schema: []string{"id:int", "price:float"}},
	"ratings":    {Path: "in/ratings", Schema: []string{"user:int", "movie:int", "rating:float"}},
	"movies":     {Path: "in/movies", Schema: []string{"movie:int", "year:int"}},
}

// scaleLit is the literal of a multiplying shape: 1 + k/1024, dyadic so
// products with the integer data stay exact.
func scaleLit(k int) float64 { return 1 + float64(k)/1024 }

var serveShapes = []*serveShape{
	{
		// 2 operators in Hive: EU purchases under a bound every value is
		// below, summed per user.
		name: "eu-spend", frontend: "hive", output: "eu_spend",
		tables: []string{"purchases"},
		lit:    func(k int) float64 { return float64(1000 + k) },
		source: func(lit float64) string {
			return fmt.Sprintf(`
SELECT uid, value FROM purchases WHERE region == "EU" AND value < %g AS eu;
SELECT uid, SUM(value) AS total FROM eu GROUP BY uid AS eu_spend;
`, lit)
		},
		cols: []string{"uid", "total"}, keyCols: 1,
		expect: func(d *tenantData, lit float64) []expRow {
			sum := map[int64]float64{}
			for _, p := range d.purchases {
				if p.region == "EU" && p.value < lit {
					sum[p.uid] += p.value
				}
			}
			var out []expRow
			for uid, s := range sum {
				out = append(out, expRow{keys: []string{fmt.Sprint(uid)}, vals: []float64{s}})
			}
			return out
		},
	},
	{
		// 5 operators in Pig: the paper's max-price workflow over a taxed
		// price column.
		name: "max-tax", frontend: "pig", output: "best",
		tables: []string{"properties", "prices"},
		lit:    scaleLit,
		source: func(lit float64) string {
			return fmt.Sprintf(`
locs  = FOREACH properties GENERATE id, street, town;
j     = JOIN locs BY id, prices BY id;
taxed = FOREACH j GENERATE street, town, price * %g AS tax;
g     = GROUP taxed BY (street, town);
best  = FOREACH g GENERATE group, MAX(taxed.tax) AS max_tax;
`, lit)
		},
		cols: []string{"street", "town", "max_tax"}, keyCols: 2,
		expect: func(d *tenantData, lit float64) []expRow {
			type key struct{ street, town string }
			best := map[key]float64{}
			for _, p := range d.properties {
				price, ok := d.prices[p.id]
				if !ok {
					continue
				}
				k := key{p.street, p.town}
				if t, seen := best[k]; !seen || price*lit > t {
					best[k] = price * lit
				}
			}
			var out []expRow
			for k, v := range best {
				out = append(out, expRow{keys: []string{k.street, k.town}, vals: []float64{v}})
			}
			return out
		},
	},
	{
		// 4 operators in BEER: top EU spenders, totals scaled last.
		name: "top-spenders", frontend: "beer", output: "scaled",
		tables: []string{"purchases"},
		lit:    scaleLit,
		source: func(lit float64) string {
			return fmt.Sprintf(`
eu     = SELECT * FROM purchases WHERE region == "EU";
totals = AGG SUM(value) AS total FROM eu GROUP BY uid;
top    = SELECT * FROM totals WHERE total > 150;
scaled = MUL [total, %g] FROM top;
`, lit)
		},
		cols: []string{"uid", "total"}, keyCols: 1,
		expect: func(d *tenantData, lit float64) []expRow {
			sum := map[int64]float64{}
			for _, p := range d.purchases {
				if p.region == "EU" {
					sum[p.uid] += p.value
				}
			}
			var out []expRow
			for uid, s := range sum {
				if s > 150 {
					out = append(out, expRow{keys: []string{fmt.Sprint(uid)}, vals: []float64{s * lit}})
				}
			}
			return out
		},
	},
	{
		// 16 operators in BEER: the NetFlix item-based recommendation
		// prefix (paper §6.4) — co-rated movie pairs, pair similarity,
		// per-user scores, each user's best pick, boosted last.
		name: "recommend", frontend: "beer", output: "boosted",
		tables: []string{"ratings", "movies"},
		lit:    scaleLit,
		source: func(lit float64) string {
			return fmt.Sprintf(`
sel_movies = SELECT * FROM movies WHERE movie < 16;
target     = JOIN ratings, sel_movies ON movie = movie;
pairs      = JOIN target, target ON user = user;
others     = SELECT * FROM pairs WHERE movie != r_movie;
prod       = MUL [rating, r_rating] FROM others;
sim        = AGG SUM(rating) AS sim FROM prod GROUP BY movie, r_movie;
halved     = MUL [sim, 0.5] FROM sim;
recs       = JOIN ratings, halved ON movie = movie;
score      = MUL [rating, sim] FROM recs;
totals     = AGG SUM(rating) AS total FROM score GROUP BY user, r_movie;
best       = AGG MAX(total) AS best FROM totals GROUP BY user;
joined     = JOIN totals, best ON user = user;
top        = SELECT * FROM joined WHERE total >= best;
picks      = PROJECT user, r_movie, total FROM top;
uniq       = DISTINCT picks;
boosted    = MUL [total, %g] FROM uniq;
`, lit)
		},
		cols: []string{"user", "r_movie", "total"}, keyCols: 2,
		expect: expectRecommend,
	},
}

// expectRecommend mirrors the recommend shape statement by statement.
func expectRecommend(d *tenantData, lit float64) []expRow {
	type pair struct{ a, b int64 }
	byUser := map[int64][]rating{}
	for _, r := range d.ratings {
		if r.movie < 16 { // sel_movies ⋈ ratings
			byUser[r.user] = append(byUser[r.user], r)
		}
	}
	sim := map[pair]float64{}
	for _, rs := range byUser { // pairs, others, prod, sim
		for _, x := range rs {
			for _, y := range rs {
				if x.movie != y.movie {
					sim[pair{x.movie, y.movie}] += x.score * y.score
				}
			}
		}
	}
	type um struct{ user, movie int64 }
	total := map[um]float64{}
	for _, r := range d.ratings { // recs, score, totals
		for p, s := range sim {
			if p.a == r.movie {
				total[um{r.user, p.b}] += r.score * (s * 0.5)
			}
		}
	}
	best := map[int64]float64{}
	for k, t := range total {
		if b, ok := best[k.user]; !ok || t > b {
			best[k.user] = t
		}
	}
	var out []expRow
	for k, t := range total {
		if t >= best[k.user] {
			out = append(out, expRow{keys: []string{fmt.Sprint(k.user), fmt.Sprint(k.movie)}, vals: []float64{t * lit}})
		}
	}
	return out
}

// submitRequest renders a shape variant as a serve submission.
func (s *serveShape) submitRequest(lit float64) musketeer.SubmitRequest {
	cat := map[string]musketeer.TableSpec{}
	for _, t := range s.tables {
		cat[t] = catalogSpecs[t]
	}
	return musketeer.SubmitRequest{Frontend: s.frontend, Source: s.source(lit), Catalog: cat}
}

// check compares an output relation with the oracle's rows for it.
func (s *serveShape) check(out *musketeer.Relation, want []expRow) error {
	return compareRows(out, s.cols, s.keyCols, want)
}

// compareRows checks out against want as multisets: key columns must
// match exactly (as rendered), value columns within relTol.
func compareRows(out *musketeer.Relation, cols []string, keyCols int, want []expRow) error {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, err := column(out, c)
		if err != nil {
			return err
		}
		idx[i] = j
	}
	if out.NumRows() != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", out.Name, out.NumRows(), len(want))
	}
	exp := map[string][]float64{}
	for _, w := range want {
		k := strings.Join(w.keys, "\x00")
		if _, dup := exp[k]; dup {
			return fmt.Errorf("%s: oracle produced duplicate key %q", out.Name, k)
		}
		exp[k] = w.vals
	}
	for _, row := range out.Rows {
		keys := make([]string, keyCols)
		for i := 0; i < keyCols; i++ {
			keys[i] = row[idx[i]].String()
		}
		k := strings.Join(keys, "\x00")
		vals, ok := exp[k]
		if !ok {
			return fmt.Errorf("%s: unexpected or repeated row with key %q", out.Name, strings.Join(keys, ","))
		}
		delete(exp, k)
		for i, v := range vals {
			if got := row[idx[keyCols+i]].AsFloat(); !near(got, v) {
				return fmt.Errorf("%s: key %q: %s = %.12g, want %.12g", out.Name, strings.Join(keys, ","), cols[keyCols+i], got, v)
			}
		}
	}
	return nil
}
