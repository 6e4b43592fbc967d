package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"rpm/internal/datagen"
)

// baggedOpts is the shared ensemble configuration: three members, each
// mining a 0.3-rate sample of the candidate pool.
func baggedOpts(workers int) Options {
	o := sampleOpts(workers, 0.3, 7)
	o.Bags = 3
	return o
}

// TestBaggedDeterminismWorkers asserts the ensemble guarantee: members
// train sequentially with derived seeds and the vote depends only on
// member order, so Workers 1 and Workers 8 produce identical members
// and identical predictions.
func TestBaggedDeterminismWorkers(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)

	e1, err := TrainBaggedContext(context.Background(), split.Train, baggedOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	e8, err := TrainBaggedContext(context.Background(), split.Train, baggedOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Bags() != 3 || e8.Bags() != 3 {
		t.Fatalf("Bags() = %d / %d, want 3", e1.Bags(), e8.Bags())
	}
	for i := range e1.Members {
		if !bytes.Equal(canonBytes(t, e1.Members[i]), canonBytes(t, e8.Members[i])) {
			t.Fatalf("member %d serialization diverges between Workers 1 and 8", i)
		}
	}
	p1, err := e1.PredictBatchContext(context.Background(), split.Test)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := e8.PredictBatchContext(context.Background(), split.Test)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p8) {
		t.Fatal("ensemble predictions diverge between Workers 1 and 8")
	}
}

// TestBaggedMembersDiffer asserts bagging buys diversity: with derived
// per-member seeds at Rate 0.3, at least one pair of members must mine
// different models — B identical copies would make the vote pointless.
func TestBaggedMembersDiffer(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)
	e, err := TrainBaggedContext(context.Background(), split.Train, baggedOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	first := canonBytes(t, e.Members[0])
	diverse := false
	for _, m := range e.Members[1:] {
		if !bytes.Equal(canonBytes(t, m), first) {
			diverse = true
			break
		}
	}
	if !diverse {
		t.Fatal("all bagged members serialize identically; per-member seeds are not reaching the sampler")
	}
}

// TestBaggedSingleEqualsTrain asserts the degenerate cases: Bags 0 and
// 1 wrap exactly the classifier TrainContext would build, and member 0
// of a wider ensemble keeps the base seed (so growing Bags refines a
// run instead of reshuffling it).
func TestBaggedSingleEqualsTrain(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)
	o := sampleOpts(0, 0.3, 7)
	single, err := Train(split.Train, o)
	if err != nil {
		t.Fatal(err)
	}
	want := canonBytes(t, single)
	for _, bags := range []int{0, 1} {
		bo := o
		bo.Bags = bags
		e, err := TrainBaggedContext(context.Background(), split.Train, bo)
		if err != nil {
			t.Fatal(err)
		}
		if e.Bags() != 1 {
			t.Fatalf("Bags=%d ensemble has %d members, want 1", bags, e.Bags())
		}
		if !bytes.Equal(canonBytes(t, e.Members[0]), want) {
			t.Fatalf("Bags=%d member differs from TrainContext model", bags)
		}
	}
	wide, err := TrainBaggedContext(context.Background(), split.Train, baggedOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonBytes(t, wide.Members[0]), want) {
		t.Fatal("member 0 of a 3-bag ensemble differs from the single sampled model")
	}
}

// TestBaggedObs asserts the shared registry carries the ensemble shape:
// the member count, one bag.member.<i> span per member under the train
// span, and a single shared parameter search.
func TestBaggedObs(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)
	o := baggedOpts(2)
	o.Instrument = true
	e, err := TrainBaggedContext(context.Background(), split.Train, o)
	if err != nil {
		t.Fatal(err)
	}
	s := e.TrainSnapshot()
	if s == nil {
		t.Fatal("nil snapshot with Instrument set")
	}
	if got := s.Counter(CtrBagMembers); got != 3 {
		t.Fatalf("%s = %d, want 3", CtrBagMembers, got)
	}
	if e.NumPatterns() <= 0 {
		t.Fatal("degenerate fixture: ensemble mined no patterns")
	}
}

// TestBaggedCancel asserts cooperative cancellation surfaces ctx.Err()
// instead of a partial ensemble.
func TestBaggedCancel(t *testing.T) {
	split := datagen.MustByName("SynItalyPower").Generate(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrainBaggedContext(ctx, split.Train, baggedOpts(0)); err == nil {
		t.Fatal("canceled context must fail training")
	}
}

// TestMemberSampleSeed pins the derivation rule: member 0 keeps the
// base seed, later members differ from it and from each other, and the
// reserved "derive" value 0 is never produced.
func TestMemberSampleSeed(t *testing.T) {
	if got := memberSampleSeed(7, 0); got != 7 {
		t.Fatalf("member 0 seed = %d, want base 7", got)
	}
	seen := map[int64]bool{7: true}
	for b := 1; b < 16; b++ {
		s := memberSampleSeed(7, b)
		if s == 0 {
			t.Fatalf("member %d derived the reserved seed 0", b)
		}
		if seen[s] {
			t.Fatalf("member %d seed %d collides", b, s)
		}
		seen[s] = true
	}
}

// TestMajorityLabel pins the vote rule: most frequent label wins, ties
// break toward the smaller label, independent of input order.
func TestMajorityLabel(t *testing.T) {
	cases := []struct {
		labels []int
		want   int
	}{
		{[]int{1, 1, 2}, 1},
		{[]int{2, 1, 2}, 2},
		{[]int{2, 1}, 1},       // tie → smaller label
		{[]int{1, 2}, 1},       // tie, other order
		{[]int{3, 3, 1, 1}, 1}, // tie reached late
		{[]int{-1, -1, 2, 3}, -1},
		{[]int{5}, 5},
	}
	for _, tc := range cases {
		if got := majorityLabel(tc.labels); got != tc.want {
			t.Errorf("majorityLabel(%v) = %d, want %d", tc.labels, got, tc.want)
		}
	}
}
