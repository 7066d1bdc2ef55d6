// Package stats implements the iterative (one-pass, online, parallel)
// statistics that underpin Melissa's in-transit sensitivity analysis
// (Sec. 3.1 of the paper).
//
// All accumulators support two operations:
//
//   - Update: fold one new sample in O(1) memory,
//   - query: read the current estimate at any point of the stream.
//
// Pairwise merging of two partial accumulators (Chan et al. 1982; Pébay
// 2008) is not implemented: the server folds every sample into one owner,
// so no reduction tree exists to merge along.
//
// The update formulas are the numerically stable single-pass forms of
// Pébay, "Formulas for robust, one-pass parallel computation of covariances
// and arbitrary-order statistical moments" (SAND2008-6212), reference [34]
// of the paper. They are exact: after n updates an accumulator holds the
// same value (up to floating-point round-off) as the corresponding two-pass
// textbook formula over the same n samples, in any order.
//
// The accumulators (Moments, Covariance) track one quantity and are what the
// scalar Sobol' estimators of internal/sobol are built from. Per-cell field
// statistics live in internal/core's interleaved records; the read-out
// formulas core shares with its test reference — Skewness, Kurtosis,
// ExceedanceProbability — are exported here so there is one copy of each.
package stats
