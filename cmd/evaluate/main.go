// Command evaluate is the one-shot performance evaluator (the MAESTRO
// role): give it a hardware configuration, a layer (or model) and a
// mapping style, and it prints the detailed analysis — latency,
// utilization, per-level buffer demand and traffic — without any search.
// Each unique layer is scored as a search scores it, then re-analyzed
// once for the per-level detail a score does not keep.
//
// Examples:
//
//	evaluate -model resnet18 -pes 16x8 -l1 2048 -l2 131072 -style dla-like
//	evaluate -layer CONV,64,32,28,28,3,3 -pes 16x8 -l1 2048 -l2 131072 -style eye-like
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"digamma/internal/arch"
	"digamma/internal/coopt"
	"digamma/internal/cost"
	"digamma/internal/schemes"
	"digamma/internal/workload"
)

func main() {
	var (
		modelName = flag.String("model", "", "built-in model name (evaluates every unique layer)")
		layerSpec = flag.String("layer", "", "single layer: TYPE,K,C,Y,X,R,S[,strideY,strideX]")
		pes       = flag.String("pes", "16x8", "PE hierarchy, inner x outer")
		l1        = flag.Int64("l1", 2048, "per-PE L1 bytes")
		l2        = flag.Int64("l2", 131072, "shared L2 bytes")
		styleName = flag.String("style", "dla-like", "mapping style: dla-like, shi-like, eye-like")
		platName  = flag.String("platform", "edge", "platform for area/energy models")
		workers   = flag.Int("workers", 0, "parallel per-layer analyses (0 = all cores, 1 = serial; results identical)")
		fidelity  = flag.String("fidelity", "analytical", "cost-model tier: "+strings.Join(cost.BackendNames, ", "))
	)
	flag.Parse()

	if err := run(os.Stdout, *modelName, *layerSpec, *pes, *l1, *l2, *styleName, *platName, *workers, *fidelity); err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

// run evaluates the design the flags describe and writes the report to w.
func run(w io.Writer, modelName, layerSpec, pes string, l1, l2 int64, styleName, platName string, workers int, fidelity string) error {
	r, err := evaluate(modelName, layerSpec, pes, l1, l2, styleName, platName, workers, fidelity)
	if err != nil {
		return err
	}
	ev := r.eval
	fmt.Fprintf(w, "hardware: %s (%s style)\n", r.hw, r.style)
	fmt.Fprintf(w, "area:     %s\n", ev.Area)
	fmt.Fprintf(w, "total:    %.4e cycles, %.4e pJ, valid=%v\n\n", ev.Cycles, ev.EnergyPJ, ev.Valid)
	for li, le := range ev.Layers {
		fmt.Fprintf(w, "--- %s (x%d) ---\n", le.Layer, le.Layer.Multiplicity())
		fmt.Fprintf(w, "mapping: %s\n", ev.Genome.Maps[li])
		fmt.Fprint(w, r.layers[li].Detail(r.energy, le.Layer.MACs()))
		fmt.Fprintln(w)
	}
	return nil
}

// report is one evaluated design: its evaluation, which keeps a score per
// unique layer, and each layer's full analysis, re-run for the per-level
// detail and priced with the same energy constants as the total.
type report struct {
	hw     arch.HW
	style  schemes.MapStyle
	eval   *coopt.Evaluation
	layers []*cost.Result
	energy arch.EnergyModel
}

func evaluate(modelName, layerSpec, pes string, l1, l2 int64, styleName, platName string, workers int, fidelity string) (*report, error) {
	platform, err := arch.PlatformByName(platName)
	if err != nil {
		return nil, err
	}
	backend, err := cost.BackendByName(fidelity)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var layers []workload.Layer
	switch {
	case layerSpec != "":
		l, err := parseLayer(layerSpec)
		if err != nil {
			return nil, err
		}
		layers = []workload.Layer{l}
	case modelName != "":
		m, err := workload.ByName(modelName)
		if err != nil {
			return nil, err
		}
		layers = m.UniqueLayers()
	default:
		return nil, fmt.Errorf("need -model or -layer")
	}

	var style schemes.MapStyle
	switch styleName {
	case "dla-like":
		style = schemes.DLALike
	case "shi-like":
		style = schemes.ShiLike
	case "eye-like":
		style = schemes.EyeLike
	default:
		return nil, fmt.Errorf("unknown style %q", styleName)
	}

	hw, err := parseHW(pes, l1, l2)
	if err != nil {
		return nil, err
	}

	maps := schemes.StyleMappings(style, hw, layers)
	ev, err := coopt.EvaluateMappingBackend(layers, hw, maps, platform, coopt.Latency, workers, backend)
	if err != nil {
		return nil, err
	}
	r := &report{hw: hw, style: style, eval: ev, energy: backend.EffectiveEnergy(platform.Energy)}
	for li, le := range ev.Layers {
		a := cost.NewAnalyzer(*le.Layer)
		res, err := backend.Analyze(&a, ev.HW, ev.Genome.Maps[li])
		if err != nil {
			return nil, err
		}
		r.layers = append(r.layers, res)
	}
	return r, nil
}

// parseLayer builds a layer from "TYPE,K,C,Y,X,R,S[,sy,sx]".
func parseLayer(spec string) (workload.Layer, error) {
	parts := strings.Split(spec, ",")
	if len(parts) < 7 {
		return workload.Layer{}, fmt.Errorf("layer spec needs TYPE,K,C,Y,X,R,S")
	}
	var l workload.Layer
	l.Name = "cli-layer"
	switch strings.ToUpper(parts[0]) {
	case "CONV":
		l.Type = workload.Conv
	case "DSCONV":
		l.Type = workload.DepthwiseConv
	case "GEMM":
		l.Type = workload.GEMM
	default:
		return l, fmt.Errorf("unknown layer type %q", parts[0])
	}
	vals := make([]int, 0, 8)
	for _, p := range parts[1:] {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return l, err
		}
		vals = append(vals, v)
	}
	l.K, l.C, l.Y, l.X, l.R, l.S = vals[0], vals[1], vals[2], vals[3], vals[4], vals[5]
	if len(vals) > 6 {
		l.StrideY = vals[6]
	}
	if len(vals) > 7 {
		l.StrideX = vals[7]
	}
	return l, l.Validate()
}

// parseHW builds the fixed hardware configuration.
func parseHW(pes string, l1, l2 int64) (arch.HW, error) {
	parts := strings.Split(pes, "x")
	if len(parts) != 2 {
		return arch.HW{}, fmt.Errorf("-pes must be innerxouter, e.g. 16x8")
	}
	f0, err := strconv.Atoi(parts[0])
	if err != nil {
		return arch.HW{}, err
	}
	f1, err := strconv.Atoi(parts[1])
	if err != nil {
		return arch.HW{}, err
	}
	hw := arch.HW{Fanouts: []int{f0, f1}, BufBytes: []int64{l1, l2}}.Defaults()
	return hw, hw.Validate()
}
