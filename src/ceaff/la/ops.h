#ifndef CEAFF_LA_OPS_H_
#define CEAFF_LA_OPS_H_

#include <cstddef>
#include <vector>

#include "ceaff/la/matrix.h"

namespace ceaff::la {

/// Index of the maximum entry of each row (first one on ties).
std::vector<size_t> RowArgmax(const Matrix& m);

/// Index of the maximum entry of each column (first one on ties).
std::vector<size_t> ColArgmax(const Matrix& m);

/// out = sum_k weights[k] * mats[k]. All matrices must share a shape and
/// `weights.size() == mats.size()`.
Matrix WeightedSum(const std::vector<const Matrix*>& mats,
                   const std::vector<double>& weights);

}  // namespace ceaff::la

#endif  // CEAFF_LA_OPS_H_
