package core

import (
	"fmt"

	"rramft/internal/fault"
	"rramft/internal/mapping"
	"rramft/internal/nn"
	"rramft/internal/repair"
	"rramft/internal/tensor"
	"rramft/internal/xrand"
)

// StoreBinding ties one trainable parameter to its crossbar store (nil
// Store means the parameter lives in ideal software memory).
type StoreBinding struct {
	Param *nn.Param
	Store *mapping.CrossbarStore
	// Sparsity is the pruning target applied to this layer during the
	// maintenance phase (0 disables pruning for the layer).
	Sparsity float64
	// IsConv marks convolution kernels (lower fault tolerance and
	// sparsity, per the paper's observation).
	IsConv bool
}

// Boundary is a re-orderable neuron boundary: Left's logical columns and
// Right's logical rows are the same neurons.
type Boundary struct {
	Left, Right int // indices into Model.Bindings
}

// Model is a network plus its hardware bindings.
type Model struct {
	Net        *nn.Network
	Bindings   []*StoreBinding
	Boundaries []Boundary
}

// RCSBindings returns the bindings that live on crossbars.
func (m *Model) RCSBindings() []*StoreBinding {
	var out []*StoreBinding
	for _, b := range m.Bindings {
		if b.Store != nil {
			out = append(out, b)
		}
	}
	return out
}

// RepairTarget builds the repair layer's view of the model: every
// crossbar-backed binding in model order, boundary lane ownership flags,
// and the re-orderable boundaries whose both sides live on crossbars.
// With withRefs, each binding also captures a reference weight snapshot
// (the golden image restores re-program from and magnitude lane costs
// price against) plus the pruned fraction at capture time. The snapshot is
// taken now: call RepairTarget when the model's weights are the ones
// repair should preserve.
func (m *Model) RepairTarget(withRefs bool) *repair.Target {
	t := &repair.Target{}
	index := make(map[int]int, len(m.Bindings)) // model binding index → target index
	for bi, b := range m.Bindings {
		if b.Store == nil {
			continue
		}
		rb := &repair.Binding{Store: b.Store, Sparsity: b.Sparsity, IsConv: b.IsConv}
		if withRefs {
			rb.Ref = b.Store.WeightSnapshot()
			rows, cols := b.Store.Shape()
			pruned := 0
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					if !b.Store.Kept(i, j) {
						pruned++
					}
				}
			}
			rb.BaseSparsity = float64(pruned) / float64(rows*cols)
		}
		index[bi] = len(t.Bindings)
		t.Bindings = append(t.Bindings, rb)
	}
	for _, bd := range m.Boundaries {
		li, lok := index[bd.Left]
		ri, rok := index[bd.Right]
		if lok {
			t.Bindings[li].ColBound = true
		}
		if rok {
			t.Bindings[ri].RowBound = true
		}
		if lok && rok {
			t.Boundaries = append(t.Boundaries, [2]int{li, ri})
		}
	}
	return t
}

// HWStats aggregates write-traffic counters over all crossbars of a model.
type HWStats struct {
	Writes, AttemptedOnStuck, WearOuts int64
	Cells                              int
	Faulty                             int
}

// HardwareStats sums write-traffic counters over all crossbars.
func (m *Model) HardwareStats() (stats HWStats) {
	for _, b := range m.Bindings {
		if b.Store == nil {
			continue
		}
		cb := b.Store.Crossbar()
		s := cb.Stats()
		stats.Writes += s.Writes
		stats.AttemptedOnStuck += s.AttemptedOnStuck
		stats.WearOuts += s.WearOuts
		stats.Cells += cb.Rows() * cb.Cols()
		stats.Faulty += cb.FaultMap().CountFaulty()
	}
	return stats
}

// FaultFraction returns the crossbar-wide hard-fault fraction.
func (m *Model) FaultFraction() float64 {
	s := m.HardwareStats()
	if s.Cells == 0 {
		return 0
	}
	return float64(s.Faulty) / float64(s.Cells)
}

// Reinitialize re-programs every crossbar-backed parameter with fresh
// He-initialized weights — deploying a new application onto (possibly
// worn) hardware, the scenario of the paper's §6.4 retraining study. Each
// changed weight costs one write; writes to stuck cells fail as usual.
// Software-backed parameters and biases are reset by the next training
// run's optimizer state, not here.
func Reinitialize(m *Model, rng *xrand.Stream) {
	for _, b := range m.RCSBindings() {
		rows, cols := b.Store.Shape()
		init := tensor.NewDense(rows, cols)
		nn.HeInit(init, rows, rng.Split(b.Store.Name()))
		delta := b.Store.WeightSnapshot()
		delta.Scale(-1)
		delta.AddScaled(1, init)
		b.Store.ApplyDelta(delta)
	}
}

// BuildOptions controls model construction.
type BuildOptions struct {
	Seed int64
	// OnRCS places fully-connected weights on crossbars; ConvOnRCS
	// additionally places convolution kernels there (the paper's
	// "entire-CNN case" vs "FC-only case").
	OnRCS     bool
	ConvOnRCS bool
	// Store configures the crossbars (cell levels, write variance,
	// endurance model).
	Store mapping.StoreConfig
	// InitialFaultFrac injects fabrication defects into every crossbar
	// at build time (the paper's ~10% stuck-at rate after fabrication,
	// up to ~50% after repeated retraining).
	InitialFaultFrac float64
	// FaultDist is the spatial distribution of those defects (nil =
	// uniform); half of them are SA0, half SA1.
	FaultDist fault.Distribution
	// FCSparsity / ConvSparsity are the pruning targets recorded on the
	// bindings (FC layers prune well, conv layers poorly — §6.4).
	FCSparsity   float64
	ConvSparsity float64
}

// DefaultBuildOptions returns software-only construction (the ideal case).
func DefaultBuildOptions(seed int64) BuildOptions {
	return BuildOptions{Seed: seed, Store: mapping.DefaultStoreConfig(), FCSparsity: 0.5, ConvSparsity: 0.2}
}

// makeStore wraps initial weights w in a crossbar store (with fabrication
// defects) or a plain matrix store.
func makeStore(name string, w *tensor.Dense, onRCS bool, opts BuildOptions, rng *xrand.Stream) (nn.WeightStore, *mapping.CrossbarStore) {
	if !onRCS {
		return nn.NewMatrixStore(w), nil
	}
	cs := mapping.NewCrossbarStore(name, w, opts.Store, rng.Split("cb/"+name))
	if opts.InitialFaultFrac > 0 {
		dist := opts.FaultDist
		if dist == nil {
			dist = fault.Uniform{}
		}
		fm := fault.NewMap(w.Rows, w.Cols)
		dist.Inject(fm, opts.InitialFaultFrac, 0.5, rng.Split("faults/"+name))
		cs.Crossbar().InjectFaults(fm)
	}
	return cs, cs
}

// BuildMLP constructs a ReLU MLP (in → hidden... → out) with every FC layer
// optionally on a crossbar, and interior neuron boundaries registered for
// re-mapping.
func BuildMLP(in int, hidden []int, out int, opts BuildOptions) *Model {
	rng := xrand.Derive(opts.Seed, "build/mlp")
	sizes := append(append([]int{in}, hidden...), out)
	m := &Model{}
	var layers []nn.Layer
	for l := 0; l+1 < len(sizes); l++ {
		name := fmt.Sprintf("fc%d", l+1)
		w := tensor.NewDense(sizes[l], sizes[l+1])
		nn.HeInit(w, sizes[l], rng.Split("init/"+name))
		store, cs := makeStore(name, w, opts.OnRCS, opts, rng)
		dense := nn.NewDense(name, store)
		layers = append(layers, dense)
		m.Bindings = append(m.Bindings, &StoreBinding{Param: dense.W, Store: cs, Sparsity: opts.FCSparsity})
		if l+2 < len(sizes) {
			layers = append(layers, nn.NewReLU(fmt.Sprintf("relu%d", l+1)))
		}
	}
	m.Net = nn.NewNetwork(layers...)
	if opts.OnRCS {
		for l := 0; l+1 < len(m.Bindings); l++ {
			m.Boundaries = append(m.Boundaries, Boundary{Left: l, Right: l + 1})
		}
	}
	return m
}

// BuildCNN constructs the scaled-down VGG-style CNN used as the paper's
// VGG-11 stand-in: two conv+pool stages followed by three FC layers.
// Interior FC boundaries are registered for re-mapping when the FC layers
// are on crossbars.
func BuildCNN(inC, h, w, classes int, opts BuildOptions) *Model {
	rng := xrand.Derive(opts.Seed, "build/cnn")
	m := &Model{}
	var layers []nn.Layer

	spec1 := nn.NewConvSpec(inC, h, w, 8, 3, 3, 1, 1)
	k1 := tensor.NewDense(spec1.OutC, spec1.PatchCols)
	nn.HeInit(k1, spec1.PatchCols, rng.Split("init/conv1"))
	st1, cs1 := makeStore("conv1", k1, opts.ConvOnRCS, opts, rng)
	conv1 := nn.NewConv2D("conv1", spec1, st1)
	layers = append(layers, conv1, nn.NewReLU("relu_c1"), nn.NewMaxPool2("pool1", 8, h, w))
	m.Bindings = append(m.Bindings, &StoreBinding{Param: conv1.K, Store: cs1, Sparsity: opts.ConvSparsity, IsConv: true})

	h2, w2 := h/2, w/2
	spec2 := nn.NewConvSpec(8, h2, w2, 16, 3, 3, 1, 1)
	k2 := tensor.NewDense(spec2.OutC, spec2.PatchCols)
	nn.HeInit(k2, spec2.PatchCols, rng.Split("init/conv2"))
	st2, cs2 := makeStore("conv2", k2, opts.ConvOnRCS, opts, rng)
	conv2 := nn.NewConv2D("conv2", spec2, st2)
	layers = append(layers, conv2, nn.NewReLU("relu_c2"), nn.NewMaxPool2("pool2", 16, h2, w2))
	m.Bindings = append(m.Bindings, &StoreBinding{Param: conv2.K, Store: cs2, Sparsity: opts.ConvSparsity, IsConv: true})

	flat := 16 * (h2 / 2) * (w2 / 2)
	fcSizes := []int{flat, 96, 48, classes}
	firstFC := len(m.Bindings)
	for l := 0; l+1 < len(fcSizes); l++ {
		name := fmt.Sprintf("fc%d", l+1)
		wm := tensor.NewDense(fcSizes[l], fcSizes[l+1])
		nn.HeInit(wm, fcSizes[l], rng.Split("init/"+name))
		store, cs := makeStore(name, wm, opts.OnRCS, opts, rng)
		dense := nn.NewDense(name, store)
		layers = append(layers, dense)
		m.Bindings = append(m.Bindings, &StoreBinding{Param: dense.W, Store: cs, Sparsity: opts.FCSparsity})
		if l+2 < len(fcSizes) {
			layers = append(layers, nn.NewReLU(fmt.Sprintf("relu_f%d", l+1)))
		}
	}
	m.Net = nn.NewNetwork(layers...)
	if opts.OnRCS {
		for l := firstFC; l+1 < len(m.Bindings); l++ {
			m.Boundaries = append(m.Boundaries, Boundary{Left: l, Right: l + 1})
		}
	}
	return m
}
