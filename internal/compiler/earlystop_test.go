package compiler

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/leafcell"
	"repro/internal/spice"
	"repro/internal/tech"
)

// The early-stop differential's axes: every deck and corner, every
// spare count, every power of two from 16 to 16384 words at bpc 4, and
// buffer sizes on both sides of the valid range (Validate rejects 8,
// so its points are skipped).
var (
	stopDecks   = []string{"cda05u3m1p", "cda07u3m1p", "mos06u3m1pHP"}
	stopCorners = []string{"typ", "slow", "fast"}
	stopSpares  = []int{0, 4, 8, 16}
	stopBufs    = []int{1, 2, 3, 4, 8}
)

// stopDesign returns the design whose analysis circuits one grid point
// builds — its Params and shared library are all the transients read —
// and false for a point Validate rejects.
func stopDesign(deck, corner string, spares, words, buf int) (*Design, bool, error) {
	base, err := tech.ByName(deck)
	if err != nil {
		return nil, false, err
	}
	proc, err := base.Corner(corner)
	if err != nil {
		return nil, false, err
	}
	p := Params{Words: words, BPW: 16, BPC: 4, Spares: spares, BufSize: buf, StrapCells: 32, Process: proc}
	if p.Validate() != nil {
		return nil, false, nil
	}
	lib, err := leafcell.Shared(proc, buf)
	if err != nil {
		return nil, false, err
	}
	return &Design{Params: p, Lib: lib}, true, nil
}

// sameBits reports the first pair whose float64 bits differ.
func sameBits(what string, stopped, full float64) error {
	if math.Float64bits(stopped) != math.Float64bits(full) {
		return fmt.Errorf("%s: stopped run %v (%#x), whole window %v (%#x)",
			what, stopped, math.Float64bits(stopped), full, math.Float64bits(full))
	}
	return nil
}

// checkTLBStop compares the TLB match delay of a run stopped at its
// crossing with the whole 8 ns window's.
func checkTLBStop(ctx context.Context, d *Design) error {
	stopped, err := d.tlbMatchDelay(ctx, spice.StopAtCross)
	if err != nil {
		return err
	}
	full, err := d.tlbMatchDelay(ctx, nil)
	if err != nil {
		return err
	}
	return sameBits("TLB delay", stopped, full)
}

// checkDecodeStop compares the decode inverter's rise and fall delays
// of runs stopped at their output crossings with the whole windows'.
func checkDecodeStop(ctx context.Context, d *Design) error {
	stopped, err := d.decodeEdges(ctx, spice.StopAtPropDelay)
	if err != nil {
		return err
	}
	full, err := d.decodeEdges(ctx, nil)
	if err != nil {
		return err
	}
	if err := sameBits("inverter rise", stopped.rise, full.rise); err != nil {
		return err
	}
	return sameBits("inverter fall", stopped.fall, full.fall)
}

// TestEarlyStopMatchesFullWindow is the early stop's differential over
// 3 decks × 3 corners × spares {0, 4, 8, 16} × words {16, 32, …, 16384}
// × buffer sizes {1, 2, 3, 4, 8}: at every valid point the TLB delay and the
// decode inverter's rise and fall delays are bit-equal between runs
// stopped at their measurements and the whole-window runs. The decode
// circuit does not read the spare count, so it is checked once per
// word count. Each deck × corner runs as a parallel subtest.
func TestEarlyStopMatchesFullWindow(t *testing.T) {
	ctx := context.Background()
	for _, deck := range stopDecks {
		for _, corner := range stopCorners {
			deck, corner := deck, corner
			t.Run(deck+"."+corner, func(t *testing.T) {
				t.Parallel()
				points := 0
				for _, buf := range stopBufs {
					for words := 16; words <= 16384; words *= 2 {
						decodeDone := false
						for _, spares := range stopSpares {
							d, ok, err := stopDesign(deck, corner, spares, words, buf)
							if err != nil {
								t.Fatal(err)
							}
							if !ok {
								continue
							}
							points++
							where := fmt.Sprintf("buf %d, %d words, %d spares", buf, words, spares)
							if err := checkTLBStop(ctx, d); err != nil {
								t.Errorf("%s: %v", where, err)
							}
							if !decodeDone {
								decodeDone = true
								if err := checkDecodeStop(ctx, d); err != nil {
									t.Errorf("%s: %v", where, err)
								}
							}
						}
					}
				}
				if points == 0 {
					t.Fatal("no valid grid point")
				}
			})
		}
	}
}

// FuzzEarlyStopDifferential draws points from the same axes and
// requires the same bit-equality as TestEarlyStopMatchesFullWindow.
func FuzzEarlyStopDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), uint8(6), uint8(1))
	f.Add(uint8(1), uint8(1), uint8(3), uint8(10), uint8(3))
	f.Add(uint8(2), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, deck, corner, spares, wordsLog, buf uint8) {
		words := 16 << (wordsLog % 11)
		d, ok, err := stopDesign(stopDecks[int(deck)%len(stopDecks)], stopCorners[int(corner)%len(stopCorners)],
			stopSpares[int(spares)%len(stopSpares)], words, stopBufs[int(buf)%len(stopBufs)])
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
		ctx := context.Background()
		if err := checkTLBStop(ctx, d); err != nil {
			t.Fatal(err)
		}
		if err := checkDecodeStop(ctx, d); err != nil {
			t.Fatal(err)
		}
	})
}
