#include "ceaff/la/ops.h"

#include "ceaff/common/logging.h"

namespace ceaff::la {

std::vector<size_t> RowArgmax(const Matrix& m) {
  std::vector<size_t> out(m.rows(), 0);
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* p = m.row(r);
    size_t best = 0;
    for (size_t c = 1; c < m.cols(); ++c) {
      if (p[c] > p[best]) best = c;
    }
    out[r] = best;
  }
  return out;
}

std::vector<size_t> ColArgmax(const Matrix& m) {
  std::vector<size_t> out(m.cols(), 0);
  if (m.rows() == 0) return out;
  std::vector<float> best(m.cols());
  for (size_t c = 0; c < m.cols(); ++c) best[c] = m.at(0, c);
  for (size_t r = 1; r < m.rows(); ++r) {
    const float* p = m.row(r);
    for (size_t c = 0; c < m.cols(); ++c) {
      if (p[c] > best[c]) {
        best[c] = p[c];
        out[c] = r;
      }
    }
  }
  return out;
}

Matrix WeightedSum(const std::vector<const Matrix*>& mats,
                   const std::vector<double>& weights) {
  CEAFF_CHECK(!mats.empty());
  CEAFF_CHECK(mats.size() == weights.size());
  Matrix out(mats[0]->rows(), mats[0]->cols());
  for (size_t k = 0; k < mats.size(); ++k) {
    CEAFF_CHECK(mats[k]->SameShape(out)) << "fusion shape mismatch";
    out.Axpy(static_cast<float>(weights[k]), *mats[k]);
  }
  return out;
}

}  // namespace ceaff::la
