package cjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

var concurrentRun atomic.Int64

// TestConcurrentMarshal marshals the same values from many goroutines
// at once, including struct types built fresh for this run so that
// their field lists are computed concurrently, and requires every
// result to equal the oracle's. Results are kept until the end: a
// result sharing memory with a pooled buffer would be overwritten by a
// later call.
func TestConcurrentMarshal(t *testing.T) {
	run := concurrentRun.Add(1)
	var values []any
	for i := 0; i < 4; i++ {
		typ := reflect.StructOf([]reflect.StructField{
			{Name: "B", Type: reflect.TypeFor[[]float64](), Tag: reflect.StructTag(fmt.Sprintf(`json:"b%d_%d"`, run, i))},
			{Name: "A", Type: reflect.TypeFor[map[int]string](), Tag: `json:"a,omitempty"`},
			{Name: "R", Type: reflect.TypeFor[json.RawMessage]()},
		})
		v := reflect.New(typ).Elem()
		v.Field(0).Set(reflect.ValueOf([]float64{0.1, float64(i), 1e21}))
		v.Field(1).Set(reflect.ValueOf(map[int]string{10: "x", 2: "y"}))
		v.Field(2).Set(reflect.ValueOf(json.RawMessage(`{"z":[1,2.50],"a":"\u00e9"}`)))
		values = append(values, v.Interface())
	}
	values = append(values,
		ruleOuter{ruleBase: ruleBase{1, 2}, ruleOther: &ruleOther{3, 4}},
		map[string]any{"k": []any{1, "two", map[string]int{"b": 1, "a": 2}}},
		json.RawMessage(`{"b":1,"a":[true,null,-0.0]}`),
	)
	want := make([][]byte, len(values))
	for i, v := range values {
		b, err := refMarshalIndent(v)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}

	const goroutines, rounds = 8, 20
	results := make([][][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range values {
					v := values[(i+g)%len(values)]
					b, err := MarshalIndent(v)
					if err != nil {
						t.Error(err)
						return
					}
					results[g] = append(results[g], b)
				}
			}
		}(g)
	}
	wg.Wait()
	for g, rs := range results {
		for j, b := range rs {
			if w := want[(j%len(values)+g)%len(values)]; !bytes.Equal(b, w) {
				t.Fatalf("goroutine %d result %d:\n got  %q\n want %q", g, j, b, w)
			}
		}
	}
}
