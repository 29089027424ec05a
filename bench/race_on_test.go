//go:build race

package main

const raceDetector = true
