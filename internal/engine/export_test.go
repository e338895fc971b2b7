package engine

// Test-only exports for the external engine_test package, which imports
// the optimiser (and so cannot live inside package engine).
const MaxTuples = maxTuples

var SplitSeekPreds = splitSeekPreds
