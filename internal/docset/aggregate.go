package docset

import (
	"fmt"
	"math"

	"aryn/internal/docmodel"
)

// AggKind selects the aggregation function for GroupByAggregate.
type AggKind string

// Supported aggregations.
const (
	AggCount AggKind = "count"
	AggSum   AggKind = "sum"
	AggAvg   AggKind = "avg"
	AggMin   AggKind = "min"
	AggMax   AggKind = "max"
)

// GroupByAggregate is the database-style group-by the Luna planner exposes
// as a logical operator (§6.1): group documents by keyField and compute
// one aggregate per group. The result documents carry properties
// {keyField: key, "value": aggregate, "count": groupSize} and are emitted
// in sorted key order. valueField is ignored for AggCount. An empty
// keyField aggregates the whole set into a single "all" group.
func (ds *DocSet) GroupByAggregate(keyField string, agg AggKind, valueField string) *DocSet {
	name := fmt.Sprintf("groupByAggregate[%s, %s(%s)]", keyField, agg, valueField)
	if agg == AggCount {
		name = fmt.Sprintf("groupByAggregate[%s, count]", keyField)
	}
	keyFn := func(d *docmodel.Document) string { return d.Property(keyField) }
	if keyField == "" {
		keyField = "group"
		keyFn = func(*docmodel.Document) string { return "all" }
	}
	// The reduce below only reads group members, so it must not force a
	// source clone of shared index snapshots (the Luna analytics path).
	return ds.reduceByKey(name, keyFn, func(key string, docs []*docmodel.Document) (*docmodel.Document, error) {
		out := docmodel.New(keyField + "=" + key)
		out.SetProperty(keyField, key)
		out.SetProperty("count", len(docs))
		switch agg {
		case AggCount:
			out.SetProperty("value", len(docs))
		case AggSum, AggAvg, AggMin, AggMax:
			var sum float64
			minV, maxV := math.Inf(1), math.Inf(-1)
			n := 0
			for _, d := range docs {
				v, ok := d.Properties.Float(valueField)
				if !ok {
					continue
				}
				sum += v
				minV = math.Min(minV, v)
				maxV = math.Max(maxV, v)
				n++
			}
			if n == 0 {
				out.SetProperty("value", nil)
				break
			}
			switch agg {
			case AggSum:
				out.SetProperty("value", sum)
			case AggAvg:
				out.SetProperty("value", sum/float64(n))
			case AggMin:
				out.SetProperty("value", minV)
			case AggMax:
				out.SetProperty("value", maxV)
			}
		default:
			return nil, fmt.Errorf("groupByAggregate: unknown aggregation %q", agg)
		}
		return out, nil
	})
}

// TopK sorts groups/documents by a numeric property descending and keeps
// the first k — the "top three most common parts" pattern.
func (ds *DocSet) TopK(field string, k int) *DocSet {
	return ds.SortBy(field, true).Limit(k)
}
