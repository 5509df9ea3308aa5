package fetch

import (
	"smtfetch/internal/config"
)

// PrioritizeInto orders the eligible threads by fetch-policy priority into
// dst (whose contents are discarded) and returns at most max of them.
//
// keys holds one priority value per thread — lower is better. Which signal
// the keys carry is the policy's choice and the caller's job to supply:
//
//   - ICOUNT, STALL, FLUSH: instructions in the pre-issue stages (STALL
//     and FLUSH order like ICOUNT; their long-latency-load gating happens
//     in the eligible callback);
//   - BRCOUNT: unresolved branches in flight;
//   - MISSCOUNT: outstanding D-cache misses;
//   - IQPOSN: issue-queue head-proximity penalty;
//   - RR: ignored — the per-cycle rotation alone decides.
//
// Ties are broken by thread id rotated by the cycle to avoid systematic
// bias toward low thread ids.
//
// Both the prediction stage (choosing which thread gets the predictor this
// cycle) and the fetch stage (choosing which FTQs drive the I-cache) use
// this ordering, as in the paper. Passing a reused scratch slice as dst
// keeps both stages allocation-free; the sort is a stable insertion sort
// (thread counts are tiny), which matches sort.SliceStable's ordering
// exactly while avoiding its closure and reflection costs.
//
//smtfetch:hotpath
func PrioritizeInto(dst []int, policy config.Policy, keys []int, eligible func(t int) bool, cycle uint64, max int) []int {
	n := len(keys)
	dst = dst[:0]
	t := int(cycle % uint64(n))
	for i := 0; i < n; i++ {
		if eligible(t) {
			//smtfetch:allowalloc dst is the caller's reused scratch, pre-sized to the thread count
			dst = append(dst, t)
		}
		if t++; t == n {
			t = 0
		}
	}
	if policy != config.RoundRobin {
		for i := 1; i < len(dst); i++ {
			for j := i; j > 0 && keys[dst[j]] < keys[dst[j-1]]; j-- {
				dst[j], dst[j-1] = dst[j-1], dst[j]
			}
		}
	}
	if len(dst) > max {
		dst = dst[:max]
	}
	return dst
}

// Prioritize is PrioritizeInto with a fresh result slice.
func Prioritize(policy config.Policy, keys []int, eligible func(t int) bool, cycle uint64, max int) []int {
	return PrioritizeInto(nil, policy, keys, eligible, cycle, max)
}
