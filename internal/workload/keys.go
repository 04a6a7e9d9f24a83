package workload

import (
	"fmt"
	"math/rand"

	"flowsched/internal/core"
	"flowsched/internal/popularity"
	"flowsched/internal/ring"
)

// KeyConfig describes a key-level workload: requests target keys (not
// machines); keys are placed on a consistent-hash ring, which induces the
// primary machine and, through the k−1 clockwise successors, the
// processing set. This is the full Dynamo-style pipeline the paper
// abstracts into machine-level popularity.
type KeyConfig struct {
	M       int       // cluster size
	N       int       // number of requests
	Rate    float64   // Poisson arrival rate λ
	Proc    core.Time // processing time per request (default 1)
	NumKeys int       // distinct keys in the store
	KeyBias float64   // Zipf shape over key ranks (0 = uniform keys)
	K       int       // replication factor
	VNodes  int       // virtual nodes per machine; 0 = idealized ordered ring
}

// KeyWorkload is a generated key-level workload: the instance plus the
// placement metadata that produced it.
type KeyWorkload struct {
	Inst *core.Instance
	Ring *ring.Ring
	// KeyPos[i] is the ring position of key i; KeyWeight[i] its popularity.
	KeyPos    []uint64
	KeyWeight []float64
}

// GenerateKeys draws a key-level workload: key popularity follows
// Zipf(KeyBias) over key ranks, each request samples a key, the ring maps
// it to a primary and replica set. The Task.Key field records the key id.
// The requests of one key share its set, and, as in Generate, the tasks are
// written in release order and adopted without a copy.
func GenerateKeys(cfg KeyConfig, rng *rand.Rand) (*KeyWorkload, error) {
	if cfg.M < 1 {
		return nil, fmt.Errorf("workload: need at least one machine")
	}
	if cfg.NumKeys < 1 {
		return nil, fmt.Errorf("workload: need at least one key")
	}
	if cfg.N < 0 {
		return nil, fmt.Errorf("workload: negative request count")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %v", cfg.Rate)
	}
	if cfg.K < 1 || cfg.K > cfg.M {
		return nil, fmt.Errorf("workload: replication factor k=%d out of range for m=%d", cfg.K, cfg.M)
	}
	if cfg.KeyBias < 0 {
		return nil, fmt.Errorf("workload: negative key bias %v", cfg.KeyBias)
	}
	proc := cfg.Proc
	if proc == 0 {
		proc = 1
	}
	if proc < 0 {
		return nil, fmt.Errorf("workload: negative processing time %v", proc)
	}

	var r *ring.Ring
	var err error
	if cfg.VNodes <= 0 {
		r, err = ring.NewOrdered(cfg.M)
	} else {
		r, err = ring.New(cfg.M, cfg.VNodes)
	}
	if err != nil {
		return nil, err
	}

	// Key popularity: Zipf over ranks; ring placement decorrelates rank
	// from machine index, which is exactly the paper's Shuffled flavor.
	keyWeight := popularity.Zipf(cfg.NumKeys, cfg.KeyBias)
	keyPos := make([]uint64, cfg.NumKeys)
	keySet := make([]core.ProcSet, cfg.NumKeys)
	for i := 0; i < cfg.NumKeys; i++ {
		keyPos[i] = ring.KeyPosition(fmt.Sprintf("key-%d", i))
		keySet[i] = r.ReplicaSetAt(keyPos[i], cfg.K)
	}
	sampler := popularity.NewSampler(keyWeight)

	tasks := make([]core.Task, cfg.N)
	t := core.Time(0)
	for i := range tasks {
		t += rng.ExpFloat64() / cfg.Rate
		key := sampler.Sample(rng)
		tasks[i] = core.Task{
			Release: t,
			Proc:    proc,
			Set:     keySet[key],
			Key:     key,
		}
	}
	return &KeyWorkload{
		Inst:      core.AdoptInstance(cfg.M, tasks),
		Ring:      r,
		KeyPos:    keyPos,
		KeyWeight: keyWeight,
	}, nil
}

// MachineWeights returns the machine-level popularity P(E_j) induced by
// the key popularity and ring placement — the bridge between this
// key-level model and the paper's machine-level model of Section 7.1.
func (kw *KeyWorkload) MachineWeights() []float64 {
	w, err := kw.Ring.MachineWeights(kw.KeyPos, kw.KeyWeight)
	if err != nil {
		panic(err) // lengths are constructed equal
	}
	return w
}
