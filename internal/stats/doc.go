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
// The scalar accumulators (Moments, Covariance) track one quantity and are
// what the scalar Sobol' estimators of internal/sobol are built from. The
// Field* variants (FieldMoments, FieldMinMax, FieldExceedance) track one
// quantity per mesh cell with a single shared sample count. The server does
// not fold through them: internal/core keeps the same per-cell state as
// slots of its interleaved records and updates it inside its one fused
// sweep. They are the plain, one-array-per-statistic form of that
// arithmetic, and core's equivalence tests fold them beside the kernel and
// require bitwise-equal results. The read-out formulas both sides share —
// Skewness, Kurtosis, ExceedanceProbability — are exported functions so
// there is one copy of each.
package stats
