//go:build !race

package client

// raceEnabled: see race_on_test.go.
const raceEnabled = false
