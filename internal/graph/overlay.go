package graph

// Overlay layers routing state over a frozen graph without touching it: a
// per-edge additive price and a per-node blocked bitset. A search run under
// an overlay sees edge id with effective weight Weight(id) + Price(id) and
// never relaxes into a blocked node. Because the graph itself stays
// read-only, any number of goroutines may search concurrently, each under
// its own overlay — this is how the net-parallel negotiated-congestion
// router (internal/pathfinder) routes every net of an iteration against the
// same frozen CSR arrays, and how internal/congest accumulates pre-routing
// congestion without mutating the shared grid mid-sweep.
//
// Contract: prices must be non-negative and finite wherever searches run
// (disabled edges already carry +Inf in the base weights, which any finite
// price preserves), and an overlay must be quiescent while a search or an
// SPTCache using it is live. Non-negative prices also preserve the
// admissibility of coordinate lower bounds (see Bounds): effective weights
// only grow from the geometric base lengths, so goal-directed searches stay
// exact under every pricing state.
type Overlay struct {
	price   []float64
	blocked []uint64
}

// NewOverlay returns a zero overlay (no prices, nothing blocked) sized for
// g's current node and edge counts.
func NewOverlay(g *Graph) *Overlay {
	return &Overlay{
		price:   make([]float64, g.NumEdges()),
		blocked: make([]uint64, (g.NumNodes()+63)/64),
	}
}

// Prices exposes the overlay's per-edge price slice, indexed by EdgeID. The
// slice is live — writes through it are seen by subsequent searches — so
// bulk loads (copy from a shared price array) go through here.
func (o *Overlay) Prices() []float64 { return o.price }

// Price returns the additive price of edge id.
func (o *Overlay) Price(id EdgeID) float64 { return o.price[id] }

// AddPrice adds d to edge id's price.
func (o *Overlay) AddPrice(id EdgeID, d float64) { o.price[id] += d }

// Block marks node v as blocked: searches will not relax into it.
func (o *Overlay) Block(v NodeID) { o.blocked[v>>6] |= 1 << (uint(v) & 63) }

// Unblock clears v's blocked mark.
func (o *Overlay) Unblock(v NodeID) { o.blocked[v>>6] &^= 1 << (uint(v) & 63) }

// Blocked reports whether v is blocked.
func (o *Overlay) Blocked(v NodeID) bool {
	return o.blocked[v>>6]&(1<<(uint(v)&63)) != 0
}

// BlockedWords exposes the blocked bitset as 64-bit words (node v is bit
// v&63 of word v>>6), for callers that maintain a reusable template.
func (o *Overlay) BlockedWords() []uint64 { return o.blocked }

// LoadBlocked overwrites the blocked bitset from a template of the same
// word length (the pathfinder's all-pins-blocked template, per net).
func (o *Overlay) LoadBlocked(words []uint64) { copy(o.blocked, words) }
