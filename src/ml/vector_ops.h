#ifndef HER_ML_VECTOR_OPS_H_
#define HER_ML_VECTOR_OPS_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace her {

/// Dense float vector used throughout the ML substrate.
using Vec = std::vector<float>;

inline double Dot(const Vec& a, const Vec& b) {
  HER_DCHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

inline double Norm(const Vec& a) { return std::sqrt(Dot(a, a)); }

/// Dot product of two contiguous float rows with a double accumulator.
/// This is the inner loop of the batched h_v kernel; Score and ScoreBatch
/// both go through it so their results are bit-identical.
inline double DotRows(const float* a, const float* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

/// Cosine similarity in [-1, 1]; 0 if either vector is (near) zero.
inline double Cosine(const Vec& a, const Vec& b) {
  const double na = Norm(a);
  const double nb = Norm(b);
  if (na < 1e-12 || nb < 1e-12) return 0.0;
  double c = Dot(a, b) / (na * nb);
  if (c > 1.0) c = 1.0;
  if (c < -1.0) c = -1.0;
  return c;
}

/// The paper's mapping of cosine into [0, 1]: (|cos| + cos) / 2, i.e.
/// max(cos, 0).
inline double CosineToUnit(double cosine) {
  return (std::fabs(cosine) + cosine) / 2.0;
}

/// CosineToUnit of two L2-normalized rows' dot product, which IS their
/// cosine up to float rounding: clamped like Cosine, then mapped.
inline double UnitFromDot(double dot) {
  if (dot > 1.0) dot = 1.0;
  if (dot < -1.0) dot = -1.0;
  return CosineToUnit(dot);
}

/// a += s * b.
inline void Axpy(double s, const Vec& b, Vec& a) {
  HER_DCHECK(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] += static_cast<float>(s * b[i]);
  }
}

inline void Scale(Vec& a, double s) {
  for (auto& x : a) x = static_cast<float>(x * s);
}

/// Normalizes to unit L2 norm (no-op for near-zero vectors).
inline void NormalizeL2(Vec& a) {
  const double n = Norm(a);
  if (n > 1e-12) Scale(a, 1.0 / n);
}

/// Gaussian init with std = scale.
inline Vec RandomVec(size_t dim, double scale, Rng& rng) {
  Vec v(dim);
  for (auto& x : v) x = static_cast<float>(rng.Normal() * scale);
  return v;
}

inline double Sigmoid(double x) {
  if (x >= 0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

/// In-place numerically-stable softmax.
inline void SoftmaxInPlace(Vec& logits) {
  float mx = logits.empty() ? 0.0f : logits[0];
  for (const float x : logits) mx = std::max(mx, x);
  double sum = 0.0;
  for (auto& x : logits) {
    x = static_cast<float>(std::exp(static_cast<double>(x) - mx));
    sum += x;
  }
  if (sum > 0) {
    for (auto& x : logits) x = static_cast<float>(x / sum);
  }
}

}  // namespace her

#endif  // HER_ML_VECTOR_OPS_H_
