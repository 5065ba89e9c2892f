package similarity

import (
	"smash/internal/sparse"
	"smash/internal/trace"
)

// DimUserAgent names the optional User-Agent secondary dimension. It is not
// part of the paper's three built-in secondary dimensions but demonstrates
// the extensibility hook (§III-B: "SMASH ... can easily incorporate new
// dimensions"): malware families often use one distinctive User-Agent
// string across all their servers (e.g. Sality's "KUKU v5.05exp").
const DimUserAgent = "useragent"

// BuildUserAgentGraph connects servers whose observed User-Agent sets are
// similar (eq. 1 form over UA sets). The fan-out cap naturally excludes
// ubiquitous browser UAs, leaving the rare malware-specific strings as the
// discriminating features.
func BuildUserAgentGraph(idx *trace.Index, opts Options) *ServerGraph {
	opts = opts.normalized()
	sg, nodes := newServerGraph(idx)
	inc := sparse.Get(len(nodes.Infos))
	defer inc.Release()
	for id, info := range nodes.Infos {
		for ua := range info.UserAgents {
			inc.Set(id, uint64(ua))
		}
	}
	sg.G = graphFromPairs(len(nodes.Infos), inc.CoOccurrence(opts.MaxFanout), opts.MinSimilarity, func(p sparse.Pair) float64 {
		return SetSim(int(p.Count), len(nodes.Infos[p.A].UserAgents), len(nodes.Infos[p.B].UserAgents))
	})
	return sg
}
