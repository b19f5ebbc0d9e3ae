package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly the
// metrics the benchmark prints, with the units it prints them in.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, d := range b.EndToEnd {
		e2e = append(e2e, d.Name)
	}
	for _, d := range b.PerLayer {
		layers = append(layers, d.Name)
		if d.Unit != unitOf(d.Name) {
			t.Errorf("%s: declared unit %q, printed %q", d.Name, d.Unit, unitOf(d.Name))
		}
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("end_to_end declares %v, benchmark prints %v", e2e, endToEndNames)
	}
	if !reflect.DeepEqual(layers, layerNames()) {
		t.Errorf("per_layer declares %v, benchmark prints %v", layers, layerNames())
	}
}
