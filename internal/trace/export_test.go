package trace

// OverwideTraces exposes overwideTraces' inputs to the seed corpora of the
// fuzzers in package trace_test.
func OverwideTraces() [][]byte {
	_, traces := overwideTraces()
	return traces
}
