package scenario

// builtins are the scenarios every entry point can name: the paper's three
// architectures, plus generated topology families that extend the
// evaluation beyond the two systems the paper measures. Budgets sit in the
// scarce regime of each system (roughly 2–3 units per buffer) so sizing has
// losses to remove. The table is sorted by name, which Names and All rely
// on, and its entries are validated by TestRegistryBuiltins rather than at
// every process start.
var builtins = []Scenario{
	{
		Name:        "chain6",
		Description: "generated 6-bus pipeline chain, skewed Poisson flows",
		Topology:    Topology{Kind: KindChain, Buses: 6, FanOut: 2, Utilisation: 0.85, Skew: 2.5, Seed: 7},
		Budget:      56,
	},
	{
		Name:        "chain6-bursty",
		Description: "chain6 topology under OnOff bursty traffic (same offered load)",
		Topology:    Topology{Kind: KindChain, Buses: 6, FanOut: 2, Utilisation: 0.85, Skew: 2.5, Seed: 7},
		Traffic:     Traffic{Model: ModelOnOff, Burst: 4, MeanOn: 2},
		Budget:      56,
	},
	{
		Name:        "figure1",
		Description: "paper Figure 1: four buses, two bridges, dual-homed master",
		Topology:    Topology{Kind: KindPreset, Preset: "figure1"},
		Budget:      40,
	},
	{
		Name:        "mesh9",
		Description: "generated 3×3 bus grid with cyclic bridge paths",
		Topology:    Topology{Kind: KindMesh, Buses: 9, FanOut: 2, Utilisation: 0.75, Skew: 1.5, Seed: 17},
		Budget:      104,
	},
	{
		Name:        "netproc",
		Description: "paper §3 testbed: 17-processor network-processor pipeline",
		Topology:    Topology{Kind: KindPreset, Preset: "netproc"},
		Budget:      160,
	},
	{
		Name:        "star6",
		Description: "generated hub-and-spoke: one backbone bus bridged to 5 leaves",
		Topology:    Topology{Kind: KindStar, Buses: 6, FanOut: 2, Utilisation: 0.8, Skew: 2, Seed: 11},
		Budget:      56,
	},
	{
		Name:        "tree7",
		Description: "generated binary tree of 7 buses (hierarchical interconnect)",
		Topology:    Topology{Kind: KindTree, Buses: 7, FanOut: 2, Utilisation: 0.8, Skew: 1.8, Seed: 13},
		Budget:      64,
	},
	{
		Name:        "twobus",
		Description: "minimal AMBA-style two-bus system joined by one bridge",
		Topology:    Topology{Kind: KindPreset, Preset: "twobus"},
		Budget:      24,
	},
}
