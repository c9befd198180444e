package workload

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parsers are the two model formats by name.
var parsers = map[string]func(string, io.Reader) (Model, error){"json": ParseJSON, "csv": ParseCSV}

// TestParseModelCorpus pins what the committed fuzz seeds stand for: each
// "valid-<format>-<model>" seed parses in its format to the zoo model, and
// every other seed — truncated, negative, huge, unknown layer type — is an
// error in both formats.
func TestParseModelCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseModel")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(raw), "\n", 2)
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lines[1]), "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for format, parse := range parsers {
			m, err := parse("seed", strings.NewReader(data))
			valid := strings.HasPrefix(e.Name(), "valid-"+format+"-")
			switch {
			case valid && err != nil:
				t.Errorf("%s as %s: %v", e.Name(), format, err)
			case valid:
				zoo, _ := ByName(strings.TrimPrefix(e.Name(), "valid-"+format+"-"))
				if len(m.Layers) != len(zoo.Layers) {
					t.Errorf("%s: %d layers, the zoo model has %d", e.Name(), len(m.Layers), len(zoo.Layers))
				}
			case err == nil:
				t.Errorf("%s accepted as %s", e.Name(), format)
			}
		}
	}
}

// FuzzParseModel feeds arbitrary bytes to both model parsers. Neither may
// panic, and neither sizes an allocation from a number it parsed: models
// grow one layer per row or array element, so no input yields more layers
// than it has bytes. Whatever a parser accepts is a valid model whose JSON
// rendering parses back to the same layer shapes. The committed corpus
// holds a valid zoo model in each format, truncated files, negative and
// huge dimensions and an unknown layer type.
func FuzzParseModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for format, parse := range parsers {
			m, err := parse("fuzz", bytes.NewReader(data))
			if err != nil {
				continue
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("%s: accepted an invalid model: %v", format, err)
			}
			if len(m.Layers) > len(data) {
				t.Fatalf("%s: %d layers from %d bytes", format, len(m.Layers), len(data))
			}
			var buf bytes.Buffer
			if err := WriteJSON(&buf, m); err != nil {
				t.Fatalf("%s: render: %v", format, err)
			}
			back, err := ParseJSON("fuzz", &buf)
			if err != nil {
				t.Fatalf("%s: the JSON rendering of an accepted model does not parse: %v", format, err)
			}
			if len(back.Layers) != len(m.Layers) {
				t.Fatalf("%s: %d layers re-parse as %d", format, len(m.Layers), len(back.Layers))
			}
			for i, l := range m.Layers {
				b := back.Layers[i]
				lsy, lsx := l.Strides()
				bsy, bsx := b.Strides()
				if b.Type != l.Type || b.Dims() != l.Dims() || bsy != lsy || bsx != lsx || b.Multiplicity() != l.Multiplicity() {
					t.Fatalf("%s: layer %d %v re-parses as %v", format, i, l, b)
				}
			}
		}
	})
}
