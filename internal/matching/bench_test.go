package matching

import (
	"fmt"
	"testing"

	"padres/internal/message"
	"padres/internal/predicate"
)

// benchPRT builds a table of n window subscriptions [x,>,i],[x,<,i+16] so a
// point event matches a small fraction of them, as in the paper's workload
// blocks.
func benchPRT(b testing.TB, n int) *PRT {
	b.Helper()
	prt := NewPRT()
	for i := 0; i < n; i++ {
		f := predicate.MustParse(fmt.Sprintf("[x,>,%d],[x,<,%d]", i, i+16))
		prt.Insert(message.SubID(fmt.Sprintf("s%d", i)), "c1", f, "b2")
	}
	return prt
}

// BenchmarkPRTMatch drives the counting hot path through MatchInto with a
// reused result buffer; allocs/op on the 102400-sub case is the zero-alloc
// gate enforced by benchjson -require-match, and the ns/op ratio between
// 1024 and 102400 subscriptions is the match-scalability gate.
func BenchmarkPRTMatch(b *testing.B) {
	for _, n := range []int{64, 1024, 102400} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			prt := benchPRT(b, n)
			e := predicate.Event{"x": predicate.Number(float64(n / 2))}
			var out []*Record
			out = prt.MatchInto(e, out[:0]) // warm snapshot + scratch before timing
			if len(out) == 0 {
				b.Fatal("no match")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = prt.MatchInto(e, out[:0])
				if len(out) == 0 {
					b.Fatal("no match")
				}
			}
		})
	}
}

// BenchmarkPRTIntersecting measures the steady-state intersection query the
// broker's subscribe path issues; the repeated filter hits the covering
// cache, and the 1024 vs 102400 ratio is the sublinearity gate.
func BenchmarkPRTIntersecting(b *testing.B) {
	for _, n := range []int{1024, 102400} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			prt := benchPRT(b, n)
			adv := predicate.MustParse("[x,>,500],[x,<,540]")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(prt.Intersecting(adv)) == 0 {
					b.Fatal("no intersection")
				}
			}
		})
	}
}

// BenchmarkPRTIntersectingCold defeats the covering cache with a distinct
// filter per iteration, measuring the indexed posting-list query itself.
func BenchmarkPRTIntersectingCold(b *testing.B) {
	for _, n := range []int{1024, 102400} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			prt := benchPRT(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adv := predicate.MustFilter(
					predicate.Predicate{Attr: "x", Op: predicate.OpGt, Value: predicate.Number(500 + float64(i%997)/1000)},
					predicate.Predicate{Attr: "x", Op: predicate.OpLt, Value: predicate.Number(540)},
				)
				if len(prt.Intersecting(adv)) == 0 {
					b.Fatal("no intersection")
				}
			}
		})
	}
}

func BenchmarkSRTCovering(b *testing.B) {
	srt := NewSRT()
	for i := 0; i < 1024; i++ {
		f := predicate.MustParse(fmt.Sprintf("[x,>,%d]", i))
		srt.Insert(message.AdvID(fmt.Sprintf("a%d", i)), "c1", f, "b2")
	}
	sub := predicate.MustParse("[x,>,900]")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(srt.Covering(sub, "")) == 0 {
			b.Fatal("no cover")
		}
	}
}

func BenchmarkPRTInsertRemove(b *testing.B) {
	prt := benchPRT(b, 1024)
	f := predicate.MustParse("[x,>,0],[x,<,4]")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prt.Insert("bench", "c1", f, "b2")
		prt.Remove("bench")
	}
}
