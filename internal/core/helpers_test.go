package core

import "math/rand"

// newTestRand gives tests a seeded random source without importing
// math/rand in every file.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// transformerOf builds the transformer a classifier over pats gets from
// newClassifier, which makes each pattern's matcher itself.
func transformerOf(pats []Pattern, rotInv bool) *transformer {
	return newClassifier(pats, nil, Options{RotationInvariant: rotInv}, nil, nil, nil).tf
}
